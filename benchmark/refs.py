"""Reference outputs and independent oracles for the benchmark's operations.

Expected CLI outputs are read from ``tests/golden/`` and never written.  The
Hirzebruch-Jung oracle works in integers (discrepancies scaled by n) and
imports nothing from ``fanoquotients``, so a fault in ``hj_resolution``
cannot hide itself.

Every checker returns ``None`` for a correct output and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

TABLE_TITLES = ("Table 1: quotients by cyclic groups", "Table 2: quotients by non-cyclic groups")


class References:
    """Expected stdout and exit code of the CLI operations the workloads run."""

    def __init__(self, root: Path):
        golden = root / "tests" / "golden"
        self.tables = "\n\n".join(
            f"{title}\n{(golden / f'table{i}.txt').read_text().removesuffix(chr(10))}"
            for i, title in enumerate(TABLE_TITLES, start=1)) + "\n"
        self.reports: dict[str, tuple[str, int]] = {}
        for path in sorted((golden / "reports").glob("*.json")):
            text = path.read_text()
            payload = json.loads(text)
            clean = payload["computed"]["noether_ok"] and not payload["flags"]
            self.reports[payload["label"]] = (text, 0 if clean else 1)
        self.rationality = {case: (golden / f"rationality_{case}.txt").read_text()
                            for case in ("klein", "xv")}
        self.data_files = sorted(
            str(p.relative_to(root)) for p in (root / "src" / "fanoquotients" / "data").glob("*.json"))


def compare(got: str, expected: str, rc: int, expected_rc: int) -> str | None:
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}"
    if got == expected:
        return None
    got_lines, want_lines = got.splitlines(), expected.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {i}: got {g!r}, expected {w!r}"
    return f"output has {len(got_lines)} lines, expected {len(want_lines)}"


# ---------------------------------------------------------------------------
# Hirzebruch-Jung oracle


def check_chain(n: int, q: int, q_canon: int, selfints, discrepancies, k2) -> str | None:
    """Check one resolved A_{n,q} against first principles.

    * q is canonicalised to min(q, q^-1 mod n);
    * the chain folds back to n/q_canon (continued-fraction round trip);
    * the discrepancies solve M a = 2 - b on the tridiagonal chain matrix M
      and lie in [0, 1);
    * the K^2 correction equals a^T M a, evaluated directly.
    """
    want_q = min(q, pow(q, -1, n))
    if q_canon != want_q:
        return f"A{n},{q}: canonical q {q_canon}, expected {want_q}"
    b = [int(x) for x in selfints]
    k = len(b)
    if not b or any(x < 2 for x in b):
        return f"A{n},{q}: chain {b} has an entry below 2"
    num, den = b[-1], 1
    for x in reversed(b[:-1]):
        num, den = x * num - den, num
    if (num, den) != (n, q_canon):
        return f"A{n},{q}: chain {b} folds to {num}/{den}"
    if len(discrepancies) != k:
        return f"A{n},{q}: {len(discrepancies)} discrepancies for {k} components"
    scaled = []  # n * a_i, which must be integers in [0, n)
    for a in discrepancies:
        a = Fraction(a)
        if n % a.denominator:
            return f"A{n},{q}: discrepancy {a} has a denominator not dividing {n}"
        scaled.append(a.numerator * (n // a.denominator))
    if any(not 0 <= s < n for s in scaled):
        return f"A{n},{q}: discrepancies {list(map(str, discrepancies))} outside [0, 1)"
    m_a = [-b[i] * scaled[i] + (scaled[i - 1] if i else 0) + (scaled[i + 1] if i + 1 < k else 0)
           for i in range(k)]
    if any(m_a[i] != (2 - b[i]) * n for i in range(k)):
        return f"A{n},{q}: M a != 2 - b"
    if Fraction(k2) != Fraction(sum(s * m for s, m in zip(scaled, m_a)), n * n):
        return f"A{n},{q}: K^2 correction {k2} != a^T M a"
    return None


_FRACTION = r"-?\d+(?:/\d+)?"
_RESOLVE = re.compile(
    r"A(\d+),(\d+)(?: \(A(\d+)\))?: chain \(((?:-\d+, )*-\d+,?)\) \(up to reversal\)\n"
    rf"  discrepancies: \(((?:{_FRACTION}, )*{_FRACTION},?)\)\n"
    rf"  K\^2 correction: ({_FRACTION})\n"
    r"  components: (\d+)(, du Val)?\n\Z")


def check_resolve_text(n: int, q: int, stdout: str) -> str | None:
    """Parse the text output of ``fanoq resolve n q`` and check every value."""
    m = _RESOLVE.match(stdout)
    if m is None:
        return f"A{n},{q}: unparsable output {stdout[:80]!r}"
    shown_n, shown_q, alias, chain, disc, k2, components, du_val = m.groups()
    if int(shown_n) != n:
        return f"A{n},{q}: output is for n = {shown_n}"
    q_canon = int(shown_q)
    selfints = [-int(x) for x in re.findall(r"-?\d+", chain)]
    error = check_chain(n, q, q_canon, selfints, re.findall(_FRACTION, disc), k2)
    if error:
        return error
    if int(components) != len(selfints):
        return f"A{n},{q}: {components} components for a chain of length {len(selfints)}"
    if bool(du_val) != all(x == 2 for x in selfints):
        return f"A{n},{q}: du Val marker is wrong"
    if bool(alias) != (q_canon == n - 1) or (alias and int(alias) != n - 1):
        return f"A{n},{q}: alias {alias!r} is wrong"
    return None


def coprime_residues(n: int) -> list[int]:
    return [q for q in range(1, n) if math.gcd(n, q) == 1]
