"""Exact arithmetic in cyclotomic fields and finite matrix groups.

A ``CycNum`` is an element of Q(zeta_n) stored as a polynomial in zeta_n
reduced modulo the n-th cyclotomic polynomial, so equality is coefficient
equality and "is this rational?" is a degree check.  Matrices of such numbers
are multiplied exactly; a finite group is materialised by closing a generator
set under products.  Invariant dimensions come from averaging a character
over the group.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence


class BoundExceeded(RuntimeError):
    """Group closure grew past the requested bound (bad generator input)."""


class NonIntegralDimension(ArithmeticError):
    """A character average failed to be a nonnegative rational integer."""


# ---------------------------------------------------------------------------
# integer polynomials, dense ascending coefficients


def _poly_trim(p: list[int]) -> tuple[int, ...]:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _poly_divmod_exact(num: Sequence[int], den: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division of integer polynomials; den must be monic."""
    assert den and den[-1] == 1
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    while len(rem) >= len(den):
        lead = rem[-1]
        if lead == 0:
            rem.pop()
            continue
        shift = len(rem) - len(den)
        quot[shift] = lead
        for i, c in enumerate(den):
            rem[shift + i] -= lead * c
        rem.pop()
    return _poly_trim(quot), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by exact division: Phi_n(x) = (x^n - 1) / prod_{d|n, d<n} Phi_d(x).
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]
    poly = _poly_trim(num)
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_exact(poly, cyclotomic_poly(d))
            assert rem == ()
    return poly


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


# ---------------------------------------------------------------------------
# cyclotomic numbers


def _reduce_mod_phi(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_n (ascending Fraction coeffs) mod Phi_n."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rem = list(coeffs)
    while len(rem) > deg:
        lead = rem[-1]
        if lead == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - deg
        for i, c in enumerate(phi):
            rem[shift + i] -= lead * c
        rem.pop()
    rem.extend([Fraction(0)] * (deg - len(rem)))
    return tuple(rem)


class CycNum:
    """An element of Q(zeta_n) in reduced polynomial form."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable):
        self.n = n
        lst = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.coeffs = _reduce_mod_phi(lst, n)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, n: int = 1) -> "CycNum":
        return cls(n, [Fraction(value)])

    @classmethod
    def zeta_power(cls, n: int, k: int, coeff=1) -> "CycNum":
        """coeff * zeta_n^k."""
        k %= n
        raw = [Fraction(0)] * k + [Fraction(coeff)]
        return cls(n, raw)

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple]) -> "CycNum":
        """Sum of coeff * zeta_n^exp terms."""
        acc: list[Fraction] = [Fraction(0)]
        for coeff, exp in terms:
            exp %= n
            if exp >= len(acc):
                acc.extend([Fraction(0)] * (exp + 1 - len(acc)))
            acc[exp] += Fraction(coeff)
        return cls(n, acc)

    # -- structure ---------------------------------------------------------

    def promote(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m) for n | m via zeta_n = zeta_m^(m/n)."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed conductor {self.n} into {m}")
        step = m // self.n
        raw = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1) if self.coeffs else [Fraction(0)]
        for k, c in enumerate(self.coeffs):
            if c:
                raw[step * k] += c
        return CycNum(m, raw)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _common(a: "CycNum", b) -> tuple["CycNum", "CycNum"]:
        if not isinstance(b, CycNum):
            b = CycNum.from_rational(b)
        if a.n == b.n:
            return a, b
        m = math.lcm(a.n, b.n)
        return a.promote(m), b.promote(m)

    def __add__(self, other) -> "CycNum":
        a, b = self._common(self, other)
        la, lb = list(a.coeffs), list(b.coeffs)
        return CycNum(a.n, [x + y for x, y in zip(la, lb)])

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum(self.n, [-c for c in self.coeffs])

    def __sub__(self, other) -> "CycNum":
        return self + (-other if isinstance(other, CycNum) else CycNum.from_rational(-Fraction(other)))

    def __rsub__(self, other) -> "CycNum":
        return CycNum.from_rational(other) - self

    def __mul__(self, other) -> "CycNum":
        a, b = self._common(self, other)
        out = [Fraction(0)] * (2 * len(a.coeffs))
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        out[i + j] += ca * cb
        return CycNum(a.n, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            return self * other.inverse()
        return self * CycNum.from_rational(Fraction(1) / Fraction(other))

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return CycNum(self.n, [1 / self.coeffs[0]])
        phi = [Fraction(c) for c in cyclotomic_poly(self.n)]
        r0, r1 = phi, _frac_trim(list(self.coeffs))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_sub(s0, _frac_mul(q, s1))
        if not r1:
            raise ZeroDivisionError("element shares a factor with the modulus")
        scale = 1 / r1[0]
        return CycNum(self.n, [c * scale for c in s1])

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(self, other)
        return a.coeffs == b.coeffs

    # unhashable: equality identifies elements across conductors, so a hash
    # would have to canonicalise the conductor; deduplication goes through
    # explicit coefficient keys instead (see CycMatrix.key)
    __hash__ = None

    def __repr__(self) -> str:
        if self.is_rational():
            return f"CycNum({self.coeffs[0]})"
        terms = [f"{c}*z{self.n}^{k}" for k, c in enumerate(self.coeffs) if c]
        return "CycNum(" + " + ".join(terms) + ")"


def _frac_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _frac_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _frac_trim(out)


def _frac_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _frac_trim(out)


def _frac_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    den = _frac_trim(list(den))
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    inv = 1 / den[-1]
    while len(_frac_trim(num)) >= len(den):
        num = _frac_trim(num)
        shift = len(num) - len(den)
        factor = num[-1] * inv
        q[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
    return _frac_trim(q), _frac_trim(num)


# ---------------------------------------------------------------------------
# matrices over a cyclotomic field


class CycMatrix:
    """A square matrix of cyclotomic numbers sharing one conductor."""

    __slots__ = ("n", "dim", "rows")

    def __init__(self, entries: Sequence[Sequence[CycNum]]):
        dim = len(entries)
        if any(len(r) != dim for r in entries):
            raise ValueError("matrix must be square")
        conductor = 1
        for row in entries:
            for e in row:
                conductor = math.lcm(conductor, e.n)
        self.n = conductor
        self.dim = dim
        self.rows = tuple(tuple(e.promote(conductor) for e in row) for row in entries)

    @classmethod
    def identity(cls, dim: int, n: int = 1) -> "CycMatrix":
        return cls([[CycNum.from_rational(int(i == j), n) for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence]) -> "CycMatrix":
        """Rows of entries that are rationals or (coeff, exponent) term lists."""
        out = []
        for row in rows:
            new = []
            for e in row:
                if isinstance(e, CycNum):
                    new.append(e.promote(n) if n % e.n == 0 else e)
                elif isinstance(e, (list, tuple)):
                    new.append(CycNum.from_terms(n, e))
                else:
                    new.append(CycNum.from_rational(e, n))
            out.append(new)
        return cls(out)

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        a, b = self, other
        if a.n != b.n:
            m = math.lcm(a.n, b.n)
            a = CycMatrix([[e.promote(m) for e in row] for row in a.rows])
            b = CycMatrix([[e.promote(m) for e in row] for row in b.rows])
        dim = a.dim
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                acc = CycNum.from_rational(0, a.n)
                for k in range(dim):
                    acc = acc + a.rows[i][k] * b.rows[k][j]
                row.append(acc)
            rows.append(row)
        return CycMatrix(rows)

    def trace(self) -> CycNum:
        acc = CycNum.from_rational(0, self.n)
        for i in range(self.dim):
            acc = acc + self.rows[i][i]
        return acc

    def det(self) -> CycNum:
        """Determinant by cofactor expansion (dimensions here are at most 5)."""
        idx = tuple(range(self.dim))

        def minor_det(rows_left: tuple[int, ...], col_used: int) -> CycNum:
            if not rows_left:
                return CycNum.from_rational(1, self.n)
            i = rows_left[0]
            rest = rows_left[1:]
            acc = CycNum.from_rational(0, self.n)
            available = [j for j in idx if not col_used & (1 << j)]
            for pos, j in enumerate(available):
                e = self.rows[i][j]
                if not e.is_zero():
                    term = e * minor_det(rest, col_used | (1 << j))
                    acc = acc + (term if pos % 2 == 0 else -term)
            return acc

        return minor_det(idx, 0)

    def is_invertible(self) -> bool:
        return not self.det().is_zero()

    def transpose(self) -> "CycMatrix":
        return CycMatrix([[self.rows[j][i] for j in range(self.dim)] for i in range(self.dim)])

    def key(self) -> tuple:
        """Canonical hashable form (conductor plus reduced entry coefficients)."""
        return (self.n, tuple(tuple(e.coeffs for e in row) for row in self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.n != other.n:
            m = math.lcm(self.n, other.n)
            return CycMatrix([[e.promote(m) for e in r] for r in self.rows]).key() == \
                CycMatrix([[e.promote(m) for e in r] for r in other.rows]).key()
        return self.key() == other.key()

    __hash__ = None  # same-conductor dedup uses key() explicitly


def exterior_square_trace(m: CycMatrix) -> CycNum:
    """Character of the exterior square: (tr(m)^2 - tr(m^2)) / 2."""
    t = m.trace()
    t2 = (m @ m).trace()
    return (t * t - t2) * Fraction(1, 2)


class FiniteMatrixGroup:
    """All elements of a finite matrix group, closed under multiplication."""

    def __init__(self, elements: Sequence[CycMatrix]):
        self.elements = tuple(elements)
        self.order = len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order


def group_closure(generators: Sequence[CycMatrix], bound: int = 10000) -> FiniteMatrixGroup:
    """Close a generator set under products (BFS; deterministic element order).

    Finite order makes closure under products suffice for a group.  Raises
    ``BoundExceeded`` if the element count passes ``bound``, which signals a
    generator that does not generate a finite group (or wrong input).
    """
    dim = generators[0].dim if generators else 5
    conductor = 1
    for g in generators:
        conductor = math.lcm(conductor, g.n)
    for g in generators:
        if g.dim != dim:
            raise ValueError("generators must share one dimension")
        if not g.is_invertible():
            raise ValueError("generators must be invertible")
    gens = [CycMatrix([[e.promote(conductor) for e in row] for row in g.rows]) for g in generators]
    identity = CycMatrix.identity(dim, conductor)
    seen = {identity.key(): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x @ g
                k = y.key()
                if k not in seen:
                    if len(seen) >= bound:
                        raise BoundExceeded(f"closure exceeded {bound} elements")
                    seen[k] = y
                    nxt.append(y)
        frontier = nxt
    return FiniteMatrixGroup(list(seen.values()))


def invariant_dimension(group: FiniteMatrixGroup, character: Callable[[CycMatrix], CycNum]) -> int:
    """dim of the invariant subspace: the averaged character (1/|G|) sum chi(g).

    The average must come out a nonnegative rational integer; anything else
    means the input data is inconsistent and raises ``NonIntegralDimension``.
    """
    total: CycNum = CycNum.from_rational(0)
    for g in group:
        total = total + character(g)
    avg = total * Fraction(1, group.order)
    if not avg.is_rational():
        raise NonIntegralDimension(f"character average is irrational: {avg!r}")
    value = avg.as_fraction()
    if value.denominator != 1 or value < 0:
        raise NonIntegralDimension(f"character average {value} is not a nonnegative integer")
    return int(value)
