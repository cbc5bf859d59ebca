"""Exact rational linear algebra for small dense matrices: the tests' oracle.

Everything is built on ``fractions.Fraction`` (arbitrary-precision, always in
lowest terms, positive denominator), so no operation ever rounds.  The
matrices checked against it are tiny (intersection forms of curve
configurations), hence the dense representation and plain Gaussian
elimination, independent of the package's tridiagonal chain solver.  The
last four functions work on Hirzebruch-Jung chains: ``chain_shoot`` shoots
across the chain in integers, a route that shares no code with the package's
closed form for M^-1, ``chain_solve`` is its Fraction view, ``chain_bilinear``
expands u^T M v directly, and ``strict_transform_coeffs`` solves a curve's
strict-transform coefficients from the chains and incidence a resolution model
is built from, with ``chain_solve``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


Rat = Fraction


class SingularMatrix(ValueError):
    """Raised when a linear solve meets a matrix with determinant zero."""


class NotSymmetric(ValueError):
    """Raised when a symmetric matrix was required."""


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


def _rat(x) -> Rat:
    return x if isinstance(x, Fraction) else Fraction(x)


def rat_vector(entries: Iterable) -> tuple[Rat, ...]:
    return tuple(_rat(x) for x in entries)


class QMatrix:
    """An immutable rows x cols matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Sequence[Sequence]):
        data = tuple(rat_vector(row) for row in entries)
        if not data or not data[0]:
            raise DimensionMismatch("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        self.rows = len(data)
        self.cols = width
        self._data = data

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Rat:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple[Rat, ...]:
        return self._data[i]

    def entries(self) -> tuple[tuple[Rat, ...], ...]:
        return self._data

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"QMatrix[{body}]"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self._data[i][j] == self._data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def transpose(self) -> "QMatrix":
        return QMatrix([[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def matvec(self, v: Sequence) -> tuple[Rat, ...]:
        vec = rat_vector(v)
        if len(vec) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} columns vs vector of length {len(vec)}")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self._data)

    def submatrix(self, k: int) -> "QMatrix":
        """Leading principal k x k block."""
        return QMatrix([row[:k] for row in self._data[:k]])

    def det(self) -> Rat:
        if not self.is_square:
            raise DimensionMismatch("determinant of a non-square matrix")
        m = [list(row) for row in self._data]
        n = self.rows
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                if m[r][col] == 0:
                    continue
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
        return det


def solve_linear(a: QMatrix, b: Sequence) -> tuple[Rat, ...]:
    """Solve a*x = b exactly by Gaussian elimination with first-nonzero pivoting, then back substitution.

    Eliminating below the pivot only keeps a banded matrix banded, so a chain matrix costs O(k^2).
    """
    if not a.is_square:
        raise DimensionMismatch("solve_linear needs a square matrix")
    rhs = rat_vector(b)
    n = a.rows
    if len(rhs) != n:
        raise DimensionMismatch(f"solve_linear: matrix is {n}x{n}, vector has length {len(rhs)}")
    m = [list(row) + [rhs[i]] for i, row in enumerate(a.entries())]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix(f"zero pivot in column {col}")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n + 1):
                m[r][c] -= factor * m[col][c]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n) if m[i][j])) / m[i][i]
    return tuple(x)


def is_negative_definite(a: QMatrix) -> bool:
    """Sylvester test: (-1)^k times the k-th leading principal minor is > 0 for all k."""
    if not a.is_symmetric():
        raise NotSymmetric("definiteness test requires a symmetric matrix")
    for k in range(1, a.rows + 1):
        minor = a.submatrix(k).det()
        if (-1) ** k * minor <= 0:
            return False
    return True


def quadratic_form(a: QMatrix, v: Sequence) -> Rat:
    """Exact v^T a v."""
    if not a.is_symmetric():
        raise NotSymmetric("quadratic form requires a symmetric matrix")
    vec = rat_vector(v)
    if len(vec) != a.rows:
        raise DimensionMismatch(f"quadratic_form: {a.rows}x{a.cols} matrix vs vector of length {len(vec)}")
    return sum(vec[i] * x for i, x in enumerate(a.matvec(vec)))


def inertia(a: QMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix, by a symmetric congruence.

    Each step pivots on a nonzero diagonal entry and replaces the rest by its Schur complement.
    When every remaining diagonal entry is 0 but some m[i][j] is not, row and column j are added to
    row and column i first, which makes the new diagonal entry 2 m[i][j] != 0.  A congruence keeps
    the counts (Sylvester's law of inertia).
    """
    if not a.is_symmetric():
        raise NotSymmetric("inertia requires a symmetric matrix")
    m = [list(row) for row in a.entries()]
    live = list(range(a.rows))
    positive = negative = 0
    while live:
        p = next((i for i in live if m[i][i] != 0), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if m[i][j] != 0), None)
            if pair is None:
                break
            p, j = pair
            for k in live:
                m[p][k] += m[j][k]
            for k in live:
                m[k][p] += m[k][j]
        pivot = m[p][p]
        positive, negative = positive + (pivot > 0), negative + (pivot < 0)
        live.remove(p)
        for r in live:
            if m[r][p]:
                factor = m[r][p] / pivot
                for c in live:
                    m[r][c] -= factor * m[p][c]
    return positive, negative, len(live)


def chain_shoot(selfints: Sequence[int], rhs: Sequence[int]) -> tuple[list[int], int]:
    """(s, n) with a = s / n solving M a = r on the chain matrix (-b_i diagonal, 1 off it), by shooting.

    Row i reads a_{i-1} - b_i a_i + a_{i+1} = r_i with a_0 = a_{k+1} = 0, so shooting
    from a_0 = 0, a_1 = t gives a = P + t V, with P the integer trajectory for t = 0 and
    V the homogeneous one for t = 1.  The boundary condition a_{k+1} = 0 fixes
    t = -P_{k+1} / V_{k+1}, so n = V_{k+1} and s_i = n P_i - P_{k+1} V_i.
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


def chain_solve(selfints: Sequence[int], rhs: Sequence) -> tuple[Rat, ...]:
    """The exact solution a of M a = r on the chain matrix, from ``chain_shoot``."""
    s, n = chain_shoot(selfints, rhs)
    # n is zero exactly when M is singular: Fraction then raises ZeroDivisionError
    return tuple(Fraction(x, n) for x in s)


def chain_bilinear(selfints: Sequence[int], u: Sequence, v: Sequence) -> Rat:
    """u^T M v for the tridiagonal chain matrix, in O(length)."""
    k = len(selfints)
    total = Fraction(0)
    for i in range(k):
        s = -selfints[i] * v[i]
        if i > 0:
            s += v[i - 1]
        if i + 1 < k:
            s += v[i + 1]
        total += u[i] * s
    return total


def strict_transform_coeffs(chains, incidence, curve: str) -> dict[str, tuple[Rat, ...]]:
    """Per singular point that ``curve`` meets, the coefficients a with M a = -m, for the chains and
    incidence multiplicities m that ``ResolutionModel.build`` takes."""
    return {point: chain_solve(chains[point].selfints, [-m for m in mults])
            for point, mults in incidence.get(curve, {}).items()}
