from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_linalg import (
    DimensionMismatch,
    NotSymmetric,
    QMatrix,
    SingularMatrix,
    inertia,
    is_negative_definite,
    quadratic_form,
    solve_linear,
)


M_11_3 = QMatrix([[-3, 1], [1, -4]])
M_15_4 = QMatrix([[-4, 1], [1, -4]])


class TestSolveLinear:
    def test_chain_discrepancy_system(self):
        # the (-3),(-4) chain: coefficients 6/11, 7/11
        assert solve_linear(M_11_3, [-1, -2]) == (F(6, 11), F(7, 11))

    def test_identity(self):
        assert solve_linear(QMatrix.identity(3), [1, 2, 3]) == (F(1), F(2), F(3))

    def test_double_minus_four_chain(self):
        x = solve_linear(M_15_4, [-2, -2])
        assert x == (F(2, 3), F(2, 3))
        # oracle: substitute back
        assert M_15_4.matvec(x) == (F(-2), F(-2))

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            solve_linear(QMatrix([[1, 2], [2, 4]]), [1, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_linear(QMatrix.identity(2), [1, 2, 3])


class TestNegativeDefinite:
    def test_one_by_one(self):
        assert is_negative_definite(QMatrix([[-2]]))
        assert not is_negative_definite(QMatrix([[0]]))

    def test_chain_matrix(self):
        # minors -3 and 11: sign pattern of a negative definite form
        assert is_negative_definite(M_11_3)

    def test_indefinite(self):
        # determinant -3 < 0
        assert not is_negative_definite(QMatrix([[-1, 2], [2, -1]]))

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetric):
            is_negative_definite(QMatrix([[-1, 1], [0, -1]]))

    @pytest.mark.parametrize("entries", [
        [[-2, 1], [1, -2]],
        [[-1, 0], [0, -5]],
        [[-3, 1], [1, -4]],
        [[-1, 2], [2, -1]],
        [[-2, 1, 0], [1, -2, 1], [0, 1, -2]],
        [[-1, 1, 1], [1, -1, 1], [1, 1, -1]],
        [[-4, 1, 0], [1, -4, 1], [0, 1, -4]],
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [[-1, 2, 0], [2, -4, 0], [0, 0, -1]],
    ])
    def test_against_grid_oracle(self, entries):
        # exhaustive sign check of v^T a v over a grid of nonzero rational
        # vectors; on these instances the grid witnesses every failure
        a = QMatrix(entries)
        n = a.rows
        grid = [F(k, 2) for k in range(-4, 5)]
        vectors = []
        if n == 2:
            vectors = [(x, y) for x in grid for y in grid if (x, y) != (0, 0)]
        else:
            vectors = [(x, y, z) for x in grid for y in grid for z in grid
                       if (x, y, z) != (0, 0, 0)]
        all_negative = all(quadratic_form(a, v) < 0 for v in vectors)
        assert is_negative_definite(a) == all_negative


class TestQuadraticForm:
    def test_chain_correction_value(self):
        # oracle: direct expansion of v^T a v
        v = (F(6, 11), F(7, 11))
        direct = sum(v[i] * M_11_3[i, j] * v[j] for i in range(2) for j in range(2))
        assert direct == F(-20, 11)
        assert quadratic_form(M_11_3, v) == F(-20, 11)

    def test_zero_vector(self):
        assert quadratic_form(M_15_4, [0, 0]) == 0

    def test_double_four_chain(self):
        v = (F(2, 3), F(2, 3))
        direct = sum(v[i] * M_15_4[i, j] * v[j] for i in range(2) for j in range(2))
        assert direct == F(-8, 3)
        assert quadratic_form(M_15_4, v) == F(-8, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratic_form(M_15_4, [1, 2, 3])


class TestInertia:
    def test_hyperbolic_plane(self):
        # both diagonal entries are 0: the pivot comes from adding row and column 1 to 0
        assert inertia(QMatrix([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_diagonal(self):
        assert inertia(QMatrix([[2, 0, 0], [0, -3, 0], [0, 0, 0]])) == (1, 1, 1)

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetric):
            inertia(QMatrix([[0, 1], [0, 0]]))


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=3)


@st.composite
def invertible_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entries = draw(st.lists(
        st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n))
    m = QMatrix(entries)
    if m.det() == 0:
        # nudge the diagonal until it is invertible; keeps generation cheap
        bumped = [list(row) for row in entries]
        for i in range(n):
            bumped[i][i] += 5
        m = QMatrix(bumped)
    return m


@given(invertible_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_then_multiply_back(m, data):
    b = data.draw(st.lists(small_fractions, min_size=m.rows, max_size=m.rows))
    if m.det() == 0:
        return
    x = solve_linear(m, b)
    assert m.matvec(x) == tuple(F(v) for v in b)


@given(st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=5), st.data())
@settings(max_examples=60, deadline=None)
def test_inertia_is_the_signs_of_a_congruent_diagonal(diagonal, data):
    # P^T D P with P unit upper triangular is congruent to D, so it keeps the signs of D
    n = len(diagonal)
    p = [[1 if i == j else data.draw(st.integers(-2, 2)) if i < j else 0 for j in range(n)] for i in range(n)]
    form = [[sum(p[k][i] * diagonal[k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert inertia(QMatrix(form)) == (sum(d > 0 for d in diagonal), sum(d < 0 for d in diagonal), diagonal.count(0))
