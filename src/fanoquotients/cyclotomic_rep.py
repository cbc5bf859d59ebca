"""Exact arithmetic in cyclotomic integers and finite matrix groups.

A ``CycNum`` is an element of Z[zeta_n]: the nonzero terms of an integer
polynomial in Z[x]/(x^n - 1), x standing for zeta_n.  A scenario gives all its
generators at one conductor n, so every operation works at that one n, and
operands of two conductors raise ``ValueError``.  Products are cyclic
convolutions, so groups generated by +-zeta^k entries close in small
integers.  Equality, hash keys and the rationality tests use the one
canonical form, the remainder mod Phi_n, memoised per written form.  Every
sum of products (a number product or sum, a matrix entry, a trace, a character
sum) runs through one integer accumulator that skips zero factors.  A finite
group is closed under products, and invariant dimensions are character
averages over it: integer character sums divided exactly by |G|.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

MAX_GROUP_ORDER = 10000  # the closure bound; it bounds every singularity order n too, as n divides |G|
_PRIME = 2 ** 61 - 1  # a Mersenne prime, the modulus of the cheap identity test in _order_dividing


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
            phi_d = cyclotomic_poly(d)  # monic, so the quotient stays integral
            quot = [0] * (len(poly) - len(phi_d) + 1)
            for shift in reversed(range(len(quot))):
                lead = quot[shift] = poly[shift + len(phi_d) - 1]
                for i, c in enumerate(phi_d):
                    poly[shift + i] -= lead * c
            assert not any(poly), f"Phi_{d} does not divide"
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """The degree of Phi_n, counted without building Phi_n."""
    return sum(1 for k in range(n) if math.gcd(k, n) == 1)


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


def _one_conductor(items: Iterable) -> int:
    """The conductor every number or matrix in ``items`` shares (1 for none); two would mis-index."""
    conductors = sorted({x.n for x in items})
    if len(conductors) > 1:
        raise ValueError(f"conductors {conductors[0]} and {conductors[1]} differ: operands must share one conductor")
    return conductors[0] if conductors else 1


class CycNum:
    """An element of Z[zeta_n]: the sum of c * zeta_n^k over ``terms``."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, coeffs: Iterable[int]):
        """The number sum_k coeffs[k] zeta_n^k, for integer coefficients."""
        acc: dict[int, int] = {}
        for k, c in enumerate(coeffs):
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} of zeta_{n}^{k} is not an integer")
            acc[k % n] = acc.get(k % n, 0) + c
        self.n, self.terms = n, tuple([kc for kc in acc.items() if kc[1]])

    @classmethod
    def _make(cls, n: int, acc: dict[int, int]) -> "CycNum":
        """From exponent -> integer coefficient; zero terms are dropped."""
        x = object.__new__(cls)
        x.n, x.terms = n, tuple([kc for kc in acc.items() if kc[1]])
        return x

    @classmethod
    def from_rational(cls, value: int, n: int = 1) -> "CycNum":
        """The rational integer ``value`` at conductor n."""
        return cls(n, [value])

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[int, int]]) -> "CycNum":
        """Sum of coeff * zeta_n^exp terms, for integer coefficients."""
        coeffs: list = [0] * n
        for coeff, exp in terms:
            coeffs[exp % n] += coeff
        return cls(n, coeffs)

    def _canonical(self) -> tuple[int, ...]:
        """Coefficients mod Phi_n: equal iff the numbers are."""
        return _reduce(self.n, self.terms)

    def conjugate(self) -> "CycNum":
        """The complex conjugate, zeta_n -> zeta_n^-1."""
        return CycNum._make(self.n, {-k % self.n: c for k, c in self.terms})

    def is_rational(self) -> bool:
        return not any(self._canonical()[1:])

    def as_int(self) -> int:
        """The number as a rational integer, which a rational element of Z[zeta_n] is."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self._canonical()[0]

    def _common(self, other) -> "CycNum":
        """``other`` at this conductor: an integer is taken there, another conductor is an error."""
        if not isinstance(other, CycNum):
            return CycNum(self.n, [other])
        _one_conductor((self, other))
        return other

    def __add__(self, other) -> "CycNum":
        one = _constant(self.n, 1)
        return _sum_of_products(self.n, [(self, one), (self._common(other), one)])

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum._make(self.n, {k: -c for k, c in self.terms})

    def __sub__(self, other) -> "CycNum":
        return self + (-other)

    def __rsub__(self, other) -> "CycNum":
        return -self + other

    def __mul__(self, other) -> "CycNum":
        return _sum_of_products(self.n, [(self, self._common(other))])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, CycNum)):
            return NotImplemented
        return self._canonical() == self._common(other)._canonical()

    __hash__ = None  # numbers compare by value mod Phi_n; deduplication uses CycMatrix.key()

    def __repr__(self) -> str:
        coeffs = self._canonical()
        if not any(coeffs[1:]):
            return f"CycNum({coeffs[0]})"
        terms = [f"{c}*z{self.n}^{k}" for k, c in enumerate(coeffs) if c]
        return "CycNum(" + " + ".join(terms) + ")"


@lru_cache(maxsize=4096)  # group elements repeat a few entries, such as +-zeta^k, many times
def _reduce(n: int, terms: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    width = euler_phi(n)
    out = [0] * width
    for k, c in terms:
        if k < width:  # x^k is reduced already; the table of the others is built on first need
            out[k] += c
            continue
        for i, p in _powers_mod_phi(n)[k]:
            out[i] += c * p
    return tuple(out)


@lru_cache(maxsize=256)
def _constant(n: int, value: int) -> CycNum:
    """The integer ``value`` at conductor n, one shared object each (numbers are never mutated)."""
    return CycNum.from_rational(value, n)


def _sum_of_products(n: int, pairs: Iterable[tuple[CycNum, CycNum]],
                     minus: Iterable[tuple[CycNum, CycNum]] = ()) -> CycNum:
    """The kernel's one accumulator: sum a * b over pairs minus sum a * b over ``minus``.

    Every factor has conductor n and each product is a cyclic convolution into
    one integer dict.  A zero factor has no terms, so it adds nothing.
    """
    acc: dict[int, int] = {}
    for sign, group in ((1, pairs), (-1, minus)):
        for a, b in group:
            for i, x in a.terms:
                x *= sign
                for j, y in b.terms:
                    k = (i + j) % n
                    acc[k] = acc.get(k, 0) + x * y
    return CycNum._make(n, acc) if acc else _constant(n, 0)


def character_sum(values: Sequence[CycNum], weights: Sequence[CycNum] = ()) -> CycNum:
    """sum v * w over values and weights, w = 1 past the weights, in one accumulator."""
    n = _one_conductor(itertools.chain(values, weights))
    pairs = itertools.zip_longest(values, weights, fillvalue=_constant(n, 1))
    return _sum_of_products(n, pairs)


class CycMatrix:
    """A square matrix of cyclotomic integers sharing one conductor."""

    __slots__ = ("n", "dim", "rows")

    def __init__(self, entries: Sequence[Sequence[CycNum]]):
        dim = len(entries)
        if any(len(r) != dim for r in entries):
            raise ValueError("matrix must be square")
        self.n, self.dim = _one_conductor(e for row in entries for e in row), dim
        self.rows = tuple(tuple(row) for row in entries)

    @classmethod
    def _make(cls, n: int, rows: tuple[tuple[CycNum, ...], ...]) -> "CycMatrix":
        """From rows whose entries all have conductor n already."""
        m = object.__new__(cls)
        m.n, m.dim, m.rows = n, len(rows), rows
        return m

    @classmethod
    def identity(cls, dim: int, n: int = 1) -> "CycMatrix":
        return cls._make(n, tuple(tuple(_constant(n, int(i == j)) for j in range(dim)) for i in range(dim)))

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence]) -> "CycMatrix":
        """Rows of entries that are integers or (coeff, exponent) term lists, at conductor n."""
        return cls([[CycNum.from_terms(n, e) if isinstance(e, (list, tuple)) else CycNum.from_rational(e, n)
                     for e in row] for row in rows])

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        """Row-sparse: each entry sums a_ik b_kj over the k with both factors nonzero."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = _one_conductor((self, other))
        cols, zero = list(zip(*other.rows)), _constant(n, 0)
        rows = []
        for row in self.rows:
            nonzero = [(k, a) for k, a in enumerate(row) if a.terms]
            entries = ([(a, col[k]) for k, a in nonzero if col[k].terms] for col in cols)
            rows.append(tuple([_sum_of_products(n, pairs) if pairs else zero for pairs in entries]))
        return CycMatrix._make(n, tuple(rows))

    def trace(self) -> CycNum:
        one = _constant(self.n, 1)
        return _sum_of_products(self.n, [(self.rows[i][i], one) for i in range(self.dim)])

    def key(self) -> tuple:
        """Canonical hashable form (conductor plus the reduced entries)."""
        return (self.n, tuple([_reduce(self.n, e.terms) for row in self.rows for e in row]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycMatrix):
            return NotImplemented
        _one_conductor((self, other))
        return self.key() == other.key()

    __hash__ = None  # deduplication uses key() explicitly


def exterior_square_trace(m: CycMatrix) -> CycNum:
    """Character of the exterior square: the sum of the principal 2x2 minors m_ii m_jj - m_ij m_ji, i < j."""
    r, pairs = m.rows, list(itertools.combinations(range(m.dim), 2))
    return _sum_of_products(m.n, [(r[i][i], r[j][j]) for i, j in pairs], [(r[i][j], r[j][i]) for i, j in pairs])


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


def _mod_prime(m: CycMatrix) -> CycMatrix:
    """m reduced mod Phi_n and mod _PRIME, a ring map: a power that misses I there misses it exactly."""
    rows = (tuple(CycNum(m.n, [c % _PRIME for c in e._canonical()]) for e in row) for row in m.rows)
    return CycMatrix._make(m.n, tuple(rows))


def _power(g: CycMatrix, e: int, step: Callable[[CycMatrix], CycMatrix] = lambda m: m) -> CycMatrix:
    """g^e for e >= 1, by square and multiply from the top bit down, each product passed through ``step``."""
    x = g
    for bit in bin(e)[3:]:
        x = step(x @ x)
        x = step(x @ g) if bit == "1" else x
    return x


def _order_dividing(g: CycMatrix, multiple: int, one: tuple) -> int:
    """The order of g if g^multiple = I, else 0, found one prime power p^e of ``multiple`` at a time:
    h = g^(multiple / p^e) has order the p-part of g's, the least p^f with h^(p^f) = I.  The exact
    powers of a g that grows reach millions of bits, so g^multiple is first compared mod _PRIME."""
    if _power(g, multiple, _mod_prime).key() != one or _power(g, multiple).key() != one:
        return 0
    order, rest, p = 1, multiple, 2
    while rest > 1:
        p, part = (p if p * p <= rest else rest), 1  # what is left is prime
        while rest % p == 0:
            rest, part = rest // p, part * p
        h = _power(g, multiple // part)
        while h.key() != one:
            h, order = _power(h, p), order * p
        p += 1
    return order


def group_closure(generators: Sequence[CycMatrix], bound: int = MAX_GROUP_ORDER) -> FiniteMatrixGroup:
    """Close a generator set under products (BFS; deterministic element order).

    Each generator's powers are multiplied out first, until the identity comes
    back.  Let g (size <= 5) have finite order over K = Q(zeta_n) = Q(zeta_m),
    m = lcm(2, n).  An eigenvalue lambda of g has K(lambda) = Q(zeta_mk) with
    mk = lcm(m, ord lambda), of degree phi(mk)/phi(m) <= 5 over K.  As m is
    even, that degree is k times (1 - 1/p) for each odd prime p dividing k but
    not m, which is at least 6 once k >= 7.  So the order of g divides
    L(n) = lcm(m, 2m, ..., 6m) = 60 m.  Powers that miss the identity up to
    min(L(n), bound), or repeat without it (g singular), raise ``BoundExceeded``.
    A walk past 2 bit_length(L) powers stops there.  Each power of finite order has
    roots of unity as eigenvalues, so a rational trace above dim in size rejects g
    without a product.  Else g^L is found by squaring, mod a prime and then exactly:
    g^L != I, or an exact order above the bound, is rejected without walking
    further.  A generator that passes has finite order, so it is invertible; finite
    order makes closure under products suffice for a group.  The powers seed the
    closure and x g is skipped for x a power of g, so no product is formed twice.
    ``BoundExceeded`` also signals more than ``bound`` elements.
    """
    dim = generators[0].dim if generators else 5
    conductor = _one_conductor(generators)
    if any(g.dim != dim for g in generators) or dim > 5:
        raise ValueError("generators must share one size, at most 5")
    identity = CycMatrix.identity(dim, conductor)
    multiple = 60 * math.lcm(2, conductor)
    one, cap, walk = identity.key(), min(multiple, bound), 2 * multiple.bit_length()
    seen = {one: identity}
    cycles = []
    for i, g in enumerate(generators):
        powers, x = {one: identity}, g
        while (key := x.key()) != one:
            if key in powers or len(powers) >= cap or len(powers) == walk and (
                    any(t.is_rational() and abs(t.as_int()) > dim for t in map(CycMatrix.trace, powers.values()))
                    or not 0 < _order_dividing(g, multiple, one) <= cap):
                raise BoundExceeded(f"generator {i} is singular or of order above {cap}")
            powers[key] = x
            x = x @ g
        seen.update(powers)
        cycles.append(powers.keys())
    queue = list(seen)  # read while it grows: breadth first
    for k in queue:
        for g, powers in zip(generators, cycles):
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

    The character sum is a rational integer that |G| must divide into a
    nonnegative quotient; anything else means the input data is inconsistent
    and raises ``NonIntegralDimension``.
    """
    total = character_sum(group.character(character))
    if not total.is_rational():
        raise NonIntegralDimension(f"character average is irrational: {total!r} / {group.order}")
    value, rest = divmod(total.as_int(), group.order)
    if rest or value < 0:
        raise NonIntegralDimension(f"character average {total.as_int()} / {group.order} is not a nonnegative integer")
    return value
