"""Checks of the benchmark's own checkers and catalog generator.

    python3 benchmark/selfcheck.py

``run.py`` runs these before every measurement.  Each corrupted output must be
flagged, each correct one accepted, and the conjugated catalog must be
byte-identical for one seed and different for another.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import conjugate
import refs

RESOLVE_11_3 = ("A11,3: chain (-4, -3) (up to reversal)\n"
                "  discrepancies: (7/11, 6/11)\n"
                "  K^2 correction: -20/11\n"
                "  components: 2\n")
RESOLVE_4_3 = ("A4,3 (A3): chain (-2, -2, -2) (up to reversal)\n"
               "  discrepancies: (0, 0, 0)\n"
               "  K^2 correction: 0\n"
               "  components: 3, du Val\n")


class SelfCheckFailed(AssertionError):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckFailed(message)


def _corruptions(text: str) -> list[str]:
    middle = len(text) // 2
    flipped = "x" if text[middle] != "x" else "y"
    return [text[:middle] + flipped + text[middle + 1:], text[:-1], text + "\n", "", text.upper()]


def check_compare(references: refs.References) -> None:
    samples = [references.tables, references.rationality["klein"], references.rationality["xv"],
               *(text for text, _ in references.reports.values())]
    for text in samples:
        _expect(refs.compare(text, text, 0, 0) is None, "a correct output was rejected")
        _expect(refs.compare(text, text, 1, 0) is not None, "a wrong exit code was accepted")
        for bad in _corruptions(text):
            _expect(refs.compare(bad, text, 0, 0) is not None, f"a corrupted output was accepted: {bad[:60]!r}")


def check_hj_oracle() -> None:
    _expect(refs.check_resolve_text(11, 3, RESOLVE_11_3) is None, "resolve 11 3 was rejected")
    _expect(refs.check_resolve_text(11, 4, RESOLVE_11_3) is None, "resolve 11 4 (q^-1 = 3) was rejected")
    _expect(refs.check_resolve_text(4, 3, RESOLVE_4_3) is None, "resolve 4 3 was rejected")
    bad_outputs = [
        (11, 3, RESOLVE_11_3.replace("(-4, -3)", "(-5, -3)")),
        (11, 3, RESOLVE_11_3.replace("7/11", "8/11")),
        (11, 3, RESOLVE_11_3.replace("-20/11", "-19/11")),
        (11, 3, RESOLVE_11_3.replace("components: 2", "components: 3")),
        (11, 3, RESOLVE_11_3.replace("components: 2", "components: 2, du Val")),
        (11, 3, RESOLVE_11_3.replace("A11,3:", "A11,3 (A10):")),
        (11, 3, RESOLVE_11_3 + "extra\n"),
        (13, 3, RESOLVE_11_3),
        (4, 3, RESOLVE_4_3.replace(", du Val", "")),
        (4, 3, RESOLVE_4_3.replace(" (A3)", "")),
    ]
    for n, q, bad in bad_outputs:
        _expect(refs.check_resolve_text(n, q, bad) is not None,
                f"a corrupted resolve output was accepted for A{n},{q}: {bad!r}")
    _expect(refs.check_chain(11, 3, 3, (4, 3), ("7/11", "6/11"), "-20/11") is None, "a correct chain was rejected")
    _expect(refs.check_chain(11, 3, 4, (4, 3), ("7/11", "6/11"), "-20/11") is not None,
            "a non-canonical q was accepted")


def check_generator(source: Path, tmp: Path) -> None:
    dirs = [Path(tempfile.mkdtemp(prefix="selfcheck-", dir=tmp)) for _ in range(3)]
    first = conjugate.write_conjugated_catalog(source, dirs[0], 11)
    again = conjugate.write_conjugated_catalog(source, dirs[1], 11)
    other = conjugate.write_conjugated_catalog(source, dirs[2], 12)
    _expect([p.read_bytes() for p in first] == [p.read_bytes() for p in again],
            "one seed gave two different catalogs")
    _expect([p.read_bytes() for p in first] != [p.read_bytes() for p in other],
            "two seeds gave the same catalog")
    _expect(len(first) == len(list(source.glob("*.json"))), "a scenario file was not conjugated")


def run_all(root: Path, tmp: Path) -> None:
    check_compare(refs.References(root))
    check_hj_oracle()
    check_generator(root / "src" / "fanoquotients" / "data", tmp)


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root) as scratch:
        run_all(root, Path(scratch))
    print("benchmark self-checks passed")
    sys.exit(0)
