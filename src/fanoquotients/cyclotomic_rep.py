"""Exact arithmetic in cyclotomic fields and finite matrix groups.

A ``CycNum`` is an element of Q(zeta_n): the nonzero terms of an integer
polynomial in Z[x]/(x^n - 1), x standing for zeta_n, over one shared
denominator.  Products are cyclic convolutions and a conductor m > n
re-indexes x^k as x^(k m/n), so groups generated by +-zeta^k entries close in
small integers.  Equality, hash keys and the rationality tests use the one
canonical form, the remainder mod Phi_n.  A finite group is closed under
products, and invariant dimensions are character averages over it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

MAX_GROUP_ORDER = 10000  # the closure bound; it bounds every singularity order n too, as n divides |G|


class BoundExceeded(RuntimeError):
    """Group closure grew past the requested bound (bad generator input)."""


class NonIntegralDimension(ArithmeticError):
    """A character average failed to be a nonnegative rational integer."""


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by exact division: Phi_n(x) = (x^n - 1) / prod_{d|n, d<n} Phi_d(x).
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)  # monic, so the quotient stays integral
            quot = [0] * (len(poly) - len(den) + 1)
            for shift in reversed(range(len(quot))):
                lead = quot[shift] = poly[shift + len(den) - 1]
                for i, c in enumerate(den):
                    poly[shift + i] -= lead * c
            assert not any(poly), f"Phi_{d} does not divide"
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _powers_mod_phi(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k mod Phi_n for 0 <= k < n, each as its nonzero (exponent, coefficient) terms."""
    phi = cyclotomic_poly(n)
    row = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(n):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top, row = row[-1], [0] + row[:-1]  # x * row, with x^deg = -(Phi_n - x^deg)
        row = [r - top * p for r, p in zip(row, phi)]
    return tuple(rows)


class CycNum:
    """An element of Q(zeta_n): sum of c * zeta_n^k over ``terms``, divided by ``den``."""

    __slots__ = ("n", "terms", "den", "_canon")

    def __init__(self, n: int, coeffs: Iterable):
        """The number sum_k coeffs[k] zeta_n^k, for rational coefficients."""
        values = [(k % n, Fraction(c)) for k, c in enumerate(coeffs) if c]
        den = math.lcm(1, *(c.denominator for _, c in values))
        acc: dict[int, int] = {}
        for k, c in values:
            acc[k] = acc.get(k, 0) + c.numerator * (den // c.denominator)
        self._assign(n, acc, den)

    def _assign(self, n: int, acc: dict[int, int], den: int) -> None:
        terms = tuple([kc for kc in acc.items() if kc[1]])
        if den != 1:
            g = math.gcd(den, *(c for _, c in terms))
            terms, den = tuple((k, c // g) for k, c in terms), den // g
        self.n, self.terms, self.den, self._canon = n, terms, den, None

    @classmethod
    def _make(cls, n: int, acc: dict[int, int], den: int = 1) -> "CycNum":
        """From exponent -> integer coefficient over den; zero terms are dropped."""
        x = object.__new__(cls)
        x._assign(n, acc, den)
        return x

    @classmethod
    def from_rational(cls, value, n: int = 1) -> "CycNum":
        value = Fraction(value)
        return cls._make(n, {0: value.numerator}, value.denominator)

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple]) -> "CycNum":
        """Sum of coeff * zeta_n^exp terms."""
        coeffs: list = [0] * n
        for coeff, exp in terms:
            coeffs[exp % n] += Fraction(coeff)
        return cls(n, coeffs)

    def _canonical(self) -> tuple[tuple[int, ...], int]:
        """Coefficients mod Phi_n over a reduced denominator: equal iff the numbers are."""
        if self._canon is None:
            powers = _powers_mod_phi(self.n)
            out = [0] * euler_phi(self.n)
            for k, c in self.terms:
                for i, p in powers[k]:
                    out[i] += c * p
            g = math.gcd(self.den, *out)
            self._canon = (tuple(out), self.den) if g == 1 else (tuple([c // g for c in out]), self.den // g)
        return self._canon

    def promote(self, m: int) -> "CycNum":
        """Embed into Q(zeta_m) for n | m via zeta_n = zeta_m^(m/n)."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed conductor {self.n} into {m}")
        step = m // self.n
        return CycNum._make(m, {k * step: c for k, c in self.terms}, self.den)

    def _galois(self, a: int) -> "CycNum":
        """The image under zeta_n -> zeta_n^a, for a prime to n."""
        return CycNum._make(self.n, {k * a % self.n: c for k, c in self.terms}, self.den)

    def conjugate(self) -> "CycNum":
        """The complex conjugate, zeta_n -> zeta_n^-1."""
        return self._galois(-1)

    def is_zero(self) -> bool:
        return not self.terms or not any(self._canonical()[0])

    def is_rational(self) -> bool:
        return not any(self._canonical()[0][1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        coeffs, den = self._canonical()
        return Fraction(coeffs[0], den)

    @staticmethod
    def _common(a: "CycNum", b) -> tuple["CycNum", "CycNum"]:
        if not isinstance(b, CycNum):
            b = CycNum.from_rational(b, a.n)
        if a.n == b.n:
            return a, b
        m = math.lcm(a.n, b.n)
        return a.promote(m), b.promote(m)

    def __add__(self, other) -> "CycNum":
        a, b = self._common(self, other)
        den = math.lcm(a.den, b.den)
        acc: dict[int, int] = {}
        for x in (a, b):
            scale = den // x.den
            for k, c in x.terms:
                acc[k] = acc.get(k, 0) + scale * c
        return CycNum._make(a.n, acc, den)

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum._make(self.n, {k: -c for k, c in self.terms}, self.den)

    def __sub__(self, other) -> "CycNum":
        return self + (-other)

    def __rsub__(self, other) -> "CycNum":
        return -self + other

    def __mul__(self, other) -> "CycNum":
        a, b = self._common(self, other)
        return _sum_of_products(a.n, [(a, b)])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, Fraction, CycNum)):
            return NotImplemented
        a, b = self._common(self, other)
        return a._canonical() == b._canonical()

    __hash__ = None  # equality crosses conductors; deduplication uses CycMatrix.key()

    def __repr__(self) -> str:
        coeffs, den = self._canonical()
        if not any(coeffs[1:]):
            return f"CycNum({Fraction(coeffs[0], den)})"
        terms = [f"{Fraction(c, den)}*z{self.n}^{k}" for k, c in enumerate(coeffs) if c]
        return "CycNum(" + " + ".join(terms) + ")"


def _sum_of_products(n: int, pairs: Iterable[tuple[CycNum, CycNum]]) -> CycNum:
    """The sum of a * b over pairs at conductor n; each product is a cyclic convolution."""
    acc: dict[int, int] = {}
    den = 1
    for a, b in pairs:
        if not (a.terms and b.terms):
            continue
        d = a.den * b.den
        if den % d:
            new = math.lcm(den, d)
            acc = {k: c * (new // den) for k, c in acc.items()}
            den = new
        scale = den // d
        for i, x in a.terms:
            x *= scale
            for j, y in b.terms:
                k = (i + j) % n
                acc[k] = acc.get(k, 0) + x * y
    return CycNum._make(n, acc, den)


class CycMatrix:
    """A square matrix of cyclotomic numbers sharing one conductor."""

    __slots__ = ("n", "dim", "rows")

    def __init__(self, entries: Sequence[Sequence[CycNum]]):
        dim = len(entries)
        if any(len(r) != dim for r in entries):
            raise ValueError("matrix must be square")
        self.n, self.dim = math.lcm(1, *(e.n for row in entries for e in row)), dim
        self.rows = tuple(tuple(e.promote(self.n) for e in row) for row in entries)

    @classmethod
    def identity(cls, dim: int, n: int = 1) -> "CycMatrix":
        return cls([[CycNum.from_rational(int(i == j), n) for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence]) -> "CycMatrix":
        """Rows of entries that are CycNums, rationals or (coeff, exponent) term lists."""
        def entry(e) -> CycNum:
            if isinstance(e, CycNum):
                return e.promote(n) if n % e.n == 0 else e
            return CycNum.from_terms(n, e) if isinstance(e, (list, tuple)) else CycNum.from_rational(e, n)

        return cls([[entry(e) for e in row] for row in rows])

    def promote(self, m: int) -> "CycMatrix":
        return self if m == self.n else CycMatrix([[e.promote(m) for e in row] for row in self.rows])

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        m = math.lcm(self.n, other.n)
        cols = list(zip(*other.promote(m).rows))
        return CycMatrix([[_sum_of_products(m, zip(row, col)) for col in cols]
                          for row in self.promote(m).rows])

    def trace(self) -> CycNum:
        return sum((self.rows[i][i] for i in range(self.dim)), CycNum.from_rational(0, self.n))

    def key(self) -> tuple:
        """Canonical hashable form (conductor plus the reduced entries)."""
        return (self.n, tuple(e._canonical() for row in self.rows for e in row))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        m = math.lcm(self.n, other.n)
        return self.promote(m).key() == other.promote(m).key()

    __hash__ = None  # same-conductor dedup uses key() explicitly


def exterior_square_trace(m: CycMatrix) -> CycNum:
    """Character of the exterior square: (tr(m)^2 - tr(m^2)) / 2, tr(m^2) = sum_ij m_ij m_ji."""
    t = m.trace()
    t2 = _sum_of_products(m.n, ((m.rows[i][j], m.rows[j][i]) for i in range(m.dim) for j in range(m.dim)))
    return (t * t - t2) * Fraction(1, 2)


class FiniteMatrixGroup(tuple):
    """All elements of a finite matrix group, with the values of each character it is given."""

    @property
    def order(self) -> int:
        return len(self)

    def character(self, chi: Callable[[CycMatrix], CycNum]) -> tuple[CycNum, ...]:
        """chi at every element, in element order; evaluated once per group and chi."""
        values = vars(self).setdefault("characters", {})
        if chi not in values:
            values[chi] = tuple(map(chi, self))
        return values[chi]


def group_closure(generators: Sequence[CycMatrix], bound: int = MAX_GROUP_ORDER) -> FiniteMatrixGroup:
    """Close a generator set under products (BFS; deterministic element order).

    Each generator's powers are multiplied out first, until the identity comes
    back.  Let g (size <= 5) have finite order over K = Q(zeta_n) = Q(zeta_m),
    m = lcm(2, n).  An eigenvalue lambda of g has K(lambda) = Q(zeta_mk) with
    mk = lcm(m, ord lambda), of degree phi(mk)/phi(m) <= 5 over K.  As m is
    even, that degree is k times (1 - 1/p) for each odd prime p dividing k but
    not m, which is at least 6 once k >= 7.  So the order of g divides
    L(n) = lcm(m, 2m, ..., 6m) = 60 m.  Powers that miss the identity up to
    min(L(n), bound), or repeat without it (g singular), raise ``BoundExceeded``,
    and a generator that passes has finite order, so it is invertible; finite
    order makes closure under products suffice for a group.  The powers seed
    the closure and x g is skipped for x a power of g, so no product is formed
    twice.  ``BoundExceeded`` also signals more than ``bound`` elements.
    """
    dim = generators[0].dim if generators else 5
    conductor = math.lcm(1, *(g.n for g in generators))
    if any(g.dim != dim for g in generators) or dim > 5:
        raise ValueError("generators must share one size, at most 5")
    gens = [g.promote(conductor) for g in generators]
    identity = CycMatrix.identity(dim, conductor)
    one, cap = identity.key(), min(60 * math.lcm(2, conductor), bound)
    seen = {one: identity}
    cycles = []
    for i, g in enumerate(gens):
        powers, x = {one: identity}, g
        while (key := x.key()) != one:
            if key in powers or len(powers) >= cap:
                raise BoundExceeded(f"generator {i} is singular or of order above {cap}")
            powers[key] = x
            x = x @ g
        seen.update(powers)
        cycles.append(powers.keys())
    queue = list(seen)  # read while it grows: breadth first
    for k in queue:
        for g, powers in zip(gens, cycles):
            if k in powers:
                continue
            y = seen[k] @ g
            ky = y.key()
            if ky not in seen:
                if len(seen) >= bound:
                    raise BoundExceeded(f"closure exceeded {bound} elements")
                seen[ky] = y
                queue.append(ky)
    return FiniteMatrixGroup(seen.values())


def invariant_dimension(group: FiniteMatrixGroup, character: Callable[[CycMatrix], CycNum]) -> int:
    """dim of the invariant subspace: the averaged character (1/|G|) sum chi(g),
    read from the values the group keeps.

    The average must come out a nonnegative rational integer; anything else
    means the input data is inconsistent and raises ``NonIntegralDimension``.
    """
    avg = sum(group.character(character), CycNum.from_rational(0)) * Fraction(1, group.order)
    if not avg.is_rational():
        raise NonIntegralDimension(f"character average is irrational: {avg!r}")
    value = avg.as_fraction()
    if value.denominator != 1 or value < 0:
        raise NonIntegralDimension(f"character average {value} is not a nonnegative integer")
    return int(value)
