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
continued-fraction remainders and beta the numerators.  Once (n, q) is known
both run forward, so one pass over the expansion of n/q gives b, the
discrepancies and the K^2 correction.  A run of m components with b_i = 2 is
one partial quotient of the regular continued fraction of n/q (Riemenschneider,
Math. Ann. 209, 1974); along it alpha, beta and n a_i are arithmetic
progressions, so the pass takes the whole run in one step.  Each value s/n is
read from a table of every one that can occur (each s < n, or each even s for
even n), kept per n for the few most recent n, so a run's discrepancies are one
slice and equal ones are one shared immutable object.  A chain given by its b is
folded back to (n, q) for the same pass, and ``ExceptionalChain.solve`` reads M^-1 off the same alpha and beta.
The pass is memoised on (n, q) and returns the chain record itself, so ``CyclicSing.chain``,
``ExceptionalChain.from_selfints`` and ``hj_continued_fraction`` share one bounded chain cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple

from .cyclotomic_rep import MAX_GROUP_ORDER


def hj_continued_fraction(n: int, q: int) -> tuple[int, ...]:
    """Expansion n/q = b_1 - 1/(b_2 - ...) with every b_i >= 2."""
    CyclicSing(n, q)  # its input checks; the expansion is of q itself, not of the canonical q
    return _resolve(n, q).selfints


def _fold(selfints) -> list[int]:
    """The remainders (alpha_0, ..., alpha_k) = (n, q, ..., 1); on the reversed chain (beta_{k+1}, ..., beta_1)."""
    alpha = [0, 1]
    for x in reversed(selfints):
        alpha.append(x * alpha[-1] - alpha[-2])
    return alpha[:0:-1]


@lru_cache(maxsize=4)  # a sweep takes the chains of one n together, and a chain-cache hit needs no table
def _discrepancy_memo(n: int) -> tuple[Fraction, ...]:
    """Fraction(s, n) at index s (odd n) or s >> 1 (even n), each made once, so equal ones are one object.
    For even n only even s occur: q is odd, so alpha_i + beta_i, which runs x_0 = n, x_1 = q + 1, x_{i+1} =
    b_i x_i - x_{i-1}, is even, and so is each s = n - alpha_i - beta_i and each run step d - e."""
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"n must be at most {MAX_GROUP_ORDER}, got {n}")
    size = n if n % 2 else n // 2
    return tuple(map(Fraction, range(size), repeat(size)))  # Fraction(2t, n) = Fraction(t, n / 2)


@lru_cache(maxsize=1024)  # hits come from the q, q^-1 pairs of one n: at most about 500 chains for n <= 1005
def _resolve(n: int, q: int) -> "ExceptionalChain":
    """The chain of n/q, its discrepancies and its K^2 correction, in one pass over the expansion.

    The remainders n = alpha_0, q = alpha_1, ..., alpha_k = 1, alpha_{k+1} = 0 of the
    expansion and the numerators beta_0 = 0, beta_1 = 1, ..., beta_{k+1} = n both
    follow x_{i+1} = b_i x_i - x_{i-1}, so n a_i = n - alpha_i - beta_i comes out
    beside each b_i.  Where b_i = 2, alpha falls by d = alpha_{i-1} - alpha_i and beta
    rises by e = beta_i - beta_{i-1} at each step, and b stays 2 while d <= alpha: a run
    of alpha // d components whose n a_i step by d - e, taken in one step.  It ends at
    the next component's n a, or at n a_{k+1} = 0, so the slice's stop is never negative.
    """
    table = _discrepancy_memo(n)
    half = 1 - n % 2  # the table's index is s >> half
    b, a = [], []
    k2 = 0  # n a^T M a = sum n a_i (2 - b_i), as M a = 2 - b; a run adds 0
    alpha_prev, alpha = n, q
    beta_prev, beta = 0, 1
    while alpha > 0:
        s = n - alpha - beta
        d = alpha_prev - alpha
        if d <= alpha:
            e = beta - beta_prev
            m = alpha // d
            i, step = s >> half, (d - e) >> half
            b += [2] * m
            a += table[i:i + m * step:step] if step else [table[i]] * m
            alpha_prev, alpha = alpha - (m - 1) * d, alpha - m * d
            beta_prev, beta = beta + (m - 1) * e, beta + m * e
        else:
            x = -(-alpha_prev // alpha)
            b.append(x)
            a.append(table[s >> half])
            k2 += s * (2 - x)
            alpha_prev, alpha = alpha, x * alpha - alpha_prev
            beta_prev, beta = beta, x * beta - beta_prev
    return ExceptionalChain(tuple(b), tuple(a), Fraction(k2, n))


class ExceptionalChain(NamedTuple("ExceptionalChain", [("selfints", tuple[int, ...]),
                                                        ("discrepancies", tuple[Fraction, ...]), ("k2", Fraction)])):
    """A Hirzebruch-Jung chain: its b_i, discrepancies a_i and K^2 correction a^T M a, and its length is the
    component count.  A tuple, so immutable: one chain is shared through the chain cache."""

    __slots__ = ()

    @classmethod
    def from_selfints(cls, selfints) -> "ExceptionalChain":
        b = tuple(map(int, selfints))
        # all b_i >= 2 makes M diagonally dominant, hence negative definite
        if not b or min(b) < 2:
            raise ValueError(f"chain self-intersections must all be >= 2, got {b}")
        # an expansion with every b_i >= 2 is unique, so the pass on its (n, q) gives b back
        return _resolve(*_fold(b)[:2])

    def solve(self, rhs) -> tuple[list[int], int]:
        """(s, n) with a = s / n solving M a = r on the chain matrix (-b_i diagonal, 1 off it).

        M alpha = -n e_1 and M beta = -n e_k make (M^-1)_ij = -beta_min(i,j) alpha_max(i,j) / n (Meurant, SIAM J.
        Matrix Anal. Appl. 13, 1992): n a_i = -(alpha_i sum_{j<=i} beta_j r_j + beta_i sum_{j>i} alpha_j r_j).
        alpha and beta are folded on each call, not stored: only the short certificate chains are solved.
        """
        n, *alpha = _fold(self.selfints)
        beta = _fold(self.selfints[::-1])[:0:-1]
        alpha_sums = [*accumulate(x * r for x, r in zip(alpha, rhs))]  # sum_{j>i} is the total less sum_{j<=i}
        beta_sums = accumulate(y * r for y, r in zip(beta, rhs))
        return [-(x * u + y * (alpha_sums[-1] - v)) for x, y, u, v in zip(alpha, beta, beta_sums, alpha_sums)], n

    def __len__(self) -> int:  # not the field count, so the record's _make and _replace would fail
        return len(self.selfints)

    def k2_correction(self) -> Fraction:
        """(sum a_i C_i)^2 = a^T M a; zero exactly on du Val chains."""
        return self.k2


class CyclicSing(NamedTuple("CyclicSing", [("n", int), ("q", int)])):
    """The A_{n,q} singularity in canonical form (q replaced by min(q, q^-1 mod n)), ordered as (n, q)."""

    __slots__ = ()

    def __new__(cls, n: int, q: int):
        if n < 2:
            raise ValueError("cyclic singularity needs n >= 2")
        if not 1 <= q < n:
            raise ValueError(f"q must satisfy 1 <= q < n, got q={q}, n={n}")
        try:
            inverse = pow(q, -1, n)
        except ValueError:  # q is not invertible mod n
            raise ValueError(f"gcd(n, q) must be 1, got ({n}, {q})") from None
        return tuple.__new__(cls, (n, min(q, inverse)))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _make and _replace, which calls it, check too

    @property
    def is_du_val(self) -> bool:
        return self.q == self.n - 1

    def display(self) -> str:
        """A_k for du Val A_{k+1,k}, otherwise A_{n,q}."""
        if self.is_du_val:
            return f"A{self.n - 1}"
        return f"A{self.n},{self.q}"

    def chain(self) -> ExceptionalChain:
        return _resolve(self.n, self.q)

