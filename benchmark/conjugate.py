"""Seeded user catalogs: every scenario's generators conjugated by a random
unimodular integer matrix.

For a scenario file with conductor n, each generator g becomes P g P^-1 for
one random P in GL_5(Z) per file.  Conjugation preserves the group order and
every character, so ``fanoq --catalog DIR tables`` must print the same tables
as the built-in catalog, while the matrix entries become dense integer
combinations of powers of zeta_n that no cache keyed on the built-in data has
seen.

Entries are handled as integer polynomials in Z[x]/(x^n - 1), a dict from
exponent to coefficient; this is a finer ring than Q(zeta_n), so traces that
agree here agree in the field too.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DIM = 5

Poly = dict[int, int]


def _clean(p: Poly) -> Poly:
    return {e: c for e, c in sorted(p.items()) if c}


def _parse_entry(entry, n: int) -> Poly:
    if isinstance(entry, list):
        out: Poly = {}
        for coeff, exp in entry:
            if Fraction(coeff).denominator != 1:
                raise ValueError(f"non-integer coefficient {coeff!r}")
            out[exp % n] = out.get(exp % n, 0) + int(coeff)
        return _clean(out)
    if Fraction(entry).denominator != 1:
        raise ValueError(f"non-integer entry {entry!r}")
    return _clean({0: int(entry)})


def _render_entry(p: Poly):
    if not p:
        return 0
    if set(p) == {0}:
        return p[0]
    return [[c, e] for e, c in p.items()]


def _int_times_poly(a: list[list[int]], g: list[list[Poly]]) -> list[list[Poly]]:
    out = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            acc: Poly = {}
            for k in range(DIM):
                if a[i][k]:
                    for e, c in g[k][j].items():
                        acc[e] = acc.get(e, 0) + a[i][k] * c
            row.append(_clean(acc))
        out.append(row)
    return out


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _poly_times_int(g: list[list[Poly]], b: list[list[int]]) -> list[list[Poly]]:
    # (g b)^T = b^T g^T
    return _transpose(_int_times_poly(_transpose(b), _transpose(g)))


def _trace(g: list[list[Poly]]) -> Poly:
    acc: Poly = {}
    for i in range(DIM):
        for e, c in g[i][i].items():
            acc[e] = acc.get(e, 0) + c
    return _clean(acc)


def _trace_of_square(g: list[list[Poly]], n: int) -> Poly:
    acc: Poly = {}
    for i in range(DIM):
        for j in range(DIM):
            for e1, c1 in g[i][j].items():
                for e2, c2 in g[j][i].items():
                    e = (e1 + e2) % n
                    acc[e] = acc.get(e, 0) + c1 * c2
    return _clean(acc)


def random_unimodular(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """P = S1 (I + N) S2 and its exact inverse, with S1, S2 random signed
    permutations and N the nilpotent matrix with ones on the superdiagonal.

    The fixed unipotent core makes P^-1 a full triangle of +-1 entries, so
    every conjugate is dense, and keeps that density, and with it the cost of
    the closure, nearly the same for every seed.  Raises if P P^-1 != I.
    """
    unipotent = [[int(j in (i, i + 1)) for j in range(DIM)] for i in range(DIM)]
    p = _int_matmul(_int_matmul(_signed_permutation(rng), unipotent), _signed_permutation(rng))
    p_inv = _int_inverse(p)
    if _int_matmul(p, p_inv) != [[int(i == j) for j in range(DIM)] for i in range(DIM)]:
        raise ArithmeticError(f"P P^-1 != I for P = {p}")
    return p, p_inv


def _signed_permutation(rng: random.Random) -> list[list[int]]:
    perm = list(range(DIM))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(DIM)] for i in range(DIM)]


def _int_matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(DIM)) for j in range(DIM)] for i in range(DIM)]


def _int_inverse(p: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan over Q; the inverse of a unimodular matrix is integral."""
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(DIM)]
           for i, row in enumerate(p)]
    for col in range(DIM):
        pivot = next(r for r in range(col, DIM) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(DIM):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    inverse = [row[DIM:] for row in aug]
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ArithmeticError(f"P = {p} is not unimodular")
    return [[int(x) for x in row] for row in inverse]


def conjugate_scenario(data: dict, rng: random.Random) -> dict:
    """A copy of one scenario file with every generator conjugated by one P."""
    out = json.loads(json.dumps(data))
    group = out.get("group") or {}
    n = group.get("conductor", 1)
    p, p_inv = random_unimodular(rng)
    for gen in group.get("generators", []):
        g = [[_parse_entry(e, n) for e in row] for row in gen["rows"]]
        conj = _poly_times_int(_int_times_poly(p, g), p_inv)
        if _trace(conj) != _trace(g) or _trace_of_square(conj, n) != _trace_of_square(g, n):
            raise ArithmeticError(f"{data.get('label')}: conjugation changed tr(g) or tr(g^2)")
        gen["rows"] = [[_render_entry(e) for e in row] for row in conj]
    return out


def write_conjugated_catalog(source_dir: Path, out_dir: Path, seed: int) -> list[Path]:
    """Write the conjugated copy of every ``*.json`` in source_dir to out_dir."""
    rng = random.Random(f"conjugated-{seed}")
    written = []
    for path in sorted(source_dir.glob("*.json")):
        target = out_dir / path.name
        target.write_text(json.dumps(conjugate_scenario(json.loads(path.read_text()), rng), indent=2) + "\n")
        written.append(target)
    return written
