"""Hirzebruch-Jung resolution of cyclic quotient singularities.

A singularity of type A_{n,q} (the quotient of C^2 by (x, y) -> (zx, z^q y)
for z a primitive n-th root of unity) resolves into a chain of rational
curves whose self-intersections -b_i come from the continued fraction

    n/q = b_1 - 1/(b_2 - 1/(...)),   all b_i >= 2.

The discrepancy coefficients a_i of the chain solve M a = (2 - b_i)_i against
the tridiagonal intersection matrix M, and the canonical self-intersection of
the resolution picks up the correction a^T M a <= 0 per singularity.  That
right-hand side has a closed form (Barth-Hulek-Peters-Van de Ven, Compact
Complex Surfaces, III.5): n a_i = n - alpha_i - beta_i, with alpha the
continued-fraction remainders and beta the numerators, so a chain is resolved
in one integer pass and its values are turned into Fractions through one
bounded memo, equal values sharing one immutable object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


def hj_continued_fraction(n: int, q: int) -> tuple[int, ...]:
    """Expansion n/q = b_1 - 1/(b_2 - ...) with every b_i >= 2."""
    out = []
    while q > 0:
        b = -(-n // q)
        out.append(b)
        n, q = q, b * q - n
    return tuple(out)


def scaled_chain_solve(selfints: tuple[int, ...], rhs) -> tuple[list[int], int]:
    """Solve M a = r on the tridiagonal chain matrix (-b_i diagonal, 1 off it) in integers.

    Returns (s, n) with a_i = s_i / n.  Row i reads a_{i-1} - b_i a_i + a_{i+1} = r_i
    with a_0 = a_{k+1} = 0, so shooting from a_0 = 0, a_1 = t gives a = P + t V,
    where P is the integer trajectory for t = 0 and V the homogeneous one for
    t = 1.  The boundary condition a_{k+1} = 0 fixes t = -P_{k+1} / V_{k+1}, so
    n = V_{k+1}, the continued-fraction numerator, is the one common
    denominator; it is positive whenever every b_i >= 2.  The right-hand side
    2 - b needs no shooting: M 1 = (2 - b) - e_1 - e_k, M alpha = -n e_1 and
    M beta = -n e_k give n a = n - alpha - beta (``ExceptionalChain.from_selfints``).
    """
    p_prev, p = 0, 0
    v_prev, v = 0, 1
    ps, vs = [], []
    for b, r in zip(selfints, rhs):
        ps.append(p)
        vs.append(v)
        p_prev, p = p, b * p - p_prev + r
        v_prev, v = v, b * v - v_prev
    return [v * pi - p * vi for pi, vi in zip(ps, vs)], v


@lru_cache(maxsize=1024)  # s runs over 0..n-1, so a sweep of one n <= 1024 never evicts its own values
def _discrepancy(s: int, n: int) -> Fraction:
    return Fraction(s, n)


class ExceptionalChain:
    """A Hirzebruch-Jung chain with its discrepancy coefficients; its length is the component count."""

    __slots__ = ("selfints", "discrepancies", "_k2")

    def __init__(self, selfints: tuple[int, ...], discrepancies: tuple[Fraction, ...], _k2: Fraction):
        for name, value in zip(self.__slots__, (selfints, discrepancies, _k2)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: chains are shared through the chain cache")

    def __reduce__(self):  # copy and pickle call the constructor, not __setattr__
        return ExceptionalChain, (self.selfints, self.discrepancies, self._k2)

    def __eq__(self, other) -> bool:
        if type(other) is not ExceptionalChain:
            return NotImplemented
        return (self.selfints, self.discrepancies) == (other.selfints, other.discrepancies)

    def __hash__(self) -> int:
        return hash((self.selfints, self.discrepancies))

    def __repr__(self) -> str:
        return f"ExceptionalChain(selfints={self.selfints!r}, discrepancies={self.discrepancies!r})"

    @classmethod
    def from_selfints(cls, selfints) -> "ExceptionalChain":
        b = tuple(map(int, selfints))
        # all b_i >= 2 makes M diagonally dominant, hence negative definite
        if not b or min(b) < 2:
            raise ValueError(f"chain self-intersections must all be >= 2, got {b}")
        # M 1 = (2 - b) - e_1 - e_k, while the numerators beta (beta_0 = 0, beta_1 = 1) give
        # M beta = -n e_k and the remainders alpha (alpha_{k+1} = 0, alpha_k = 1) give
        # M alpha = -n e_1, with n = beta_{k+1} = alpha_0; so n a = n - alpha - beta
        betas = []
        beta_prev, beta = 0, 1
        for x in b:
            betas.append(beta)
            beta_prev, beta = beta, x * beta - beta_prev
        n = beta
        a, k2, in_range = [], 0, True
        alpha_next, alpha = 0, 1
        for x, beta in zip(reversed(b), reversed(betas)):
            s = n - alpha - beta
            in_range &= 0 <= s < n
            a.append(_discrepancy(s, n))
            if x != 2:
                k2 += s * (2 - x)  # M a = (2 - b_i), so a^T M a collapses to sum a_i (2 - b_i)
            alpha_next, alpha = alpha, x * alpha - alpha_next
        a = tuple(reversed(a))
        if not in_range:
            raise ValueError(f"discrepancies out of range for chain {b}: {a}")
        return cls(b, a, Fraction(k2, n))

    def __len__(self) -> int:
        return len(self.selfints)

    def pair(self, i: int, j: int) -> int:
        """Entry (i, j) of the chain intersection matrix."""
        if i == j:
            return -self.selfints[i]
        return int(abs(i - j) == 1)

    def k2_correction(self) -> Fraction:
        """(sum a_i C_i)^2 = a^T M a; zero exactly on du Val chains."""
        return self._k2


class CyclicSing(NamedTuple("CyclicSing", [("n", int), ("q", int)])):
    """The A_{n,q} singularity in canonical form (q replaced by min(q, q^-1 mod n)), ordered as (n, q)."""

    __slots__ = ()

    def __new__(cls, n: int, q: int):
        if n < 2:
            raise ValueError("cyclic singularity needs n >= 2")
        if not 1 <= q < n:
            raise ValueError(f"q must satisfy 1 <= q < n, got q={q}, n={n}")
        if math.gcd(n, q) != 1:
            raise ValueError(f"gcd(n, q) must be 1, got ({n}, {q})")
        return super().__new__(cls, n, min(q, pow(q, -1, n)))

    @property
    def is_du_val(self) -> bool:
        return self.q == self.n - 1

    def display(self) -> str:
        """A_k for du Val A_{k+1,k}, otherwise A_{n,q}."""
        if self.is_du_val:
            return f"A{self.n - 1}"
        return f"A{self.n},{self.q}"

    def chain(self) -> ExceptionalChain:
        return _chain_for(self.n, self.q)


@lru_cache(maxsize=1024)  # hits come from the q, q^-1 pairs of one n: at most about 500 chains for n <= 1005
def _chain_for(n: int, q: int) -> ExceptionalChain:
    return ExceptionalChain.from_selfints(hj_continued_fraction(n, q))

