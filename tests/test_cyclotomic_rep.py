import cmath
import itertools
import math
from fractions import Fraction as F

import pytest

from fanoquotients import catalog, cyclotomic_rep
from fanoquotients.cyclotomic_rep import (
    BoundExceeded,
    CycMatrix,
    CycNum,
    NonIntegralDimension,
    cyclotomic_poly,
    euler_phi,
    exterior_square_trace,
    group_closure,
    invariant_dimension,
)


def poly_divide(num, den):
    """Test-local oracle: exact division of integer polynomials."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    while len(num) >= len(den):
        lead = num[-1]
        if lead == 0:
            num.pop()
            continue
        assert lead % den[-1] == 0
        shift = len(num) - len(den)
        out[shift] = lead // den[-1]
        for i, c in enumerate(den):
            num[shift + i] -= out[shift] * c
        num.pop()
    assert all(c == 0 for c in num)
    return tuple(out)


def poly_multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class TestCyclotomicPoly:
    def test_first(self):
        assert cyclotomic_poly(1) == (-1, 1)          # x - 1
        assert cyclotomic_poly(4) == (1, 0, 1)        # x^2 + 1

    def test_fifteen_against_division_oracle(self):
        # divide x^15 - 1 by Phi_1 Phi_3 Phi_5 directly
        x15_minus_1 = (-1,) + (0,) * 14 + (1,)
        product = poly_multiply(poly_multiply(cyclotomic_poly(1), cyclotomic_poly(3)),
                                cyclotomic_poly(5))
        assert poly_divide(x15_minus_1, product) == cyclotomic_poly(15)
        assert cyclotomic_poly(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)

    @pytest.mark.parametrize("n", range(1, 40))
    def test_product_over_divisors(self, n):
        product = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_multiply(product, cyclotomic_poly(d))
        assert product == (-1,) + (0,) * (n - 1) + (1,)

    def test_degrees(self):
        assert euler_phi(15) == 8
        assert euler_phi(11) == 10


class TestCycNum:
    def test_primitive_relations(self):
        i = CycNum.from_terms(4, [(1, 1)])
        assert i * i == CycNum.from_rational(-1, 4)
        alpha = CycNum.from_terms(3, [(1, 1)])
        assert alpha * alpha + alpha + 1 == CycNum.from_rational(0, 3)

    @pytest.mark.parametrize("operation", [
        lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x == y,
        lambda x, y: diag_matrix(3, [1, 0, 0, 0, 0]) @ diag_matrix(5, [1, 0, 0, 0, 0]),
        lambda x, y: group_closure([diag_matrix(3, [1, 0, 0, 0, 0]), diag_matrix(5, [1, 0, 0, 0, 0])]),
    ], ids=["add", "mul", "eq", "matmul", "group_closure"])
    def test_two_conductors_are_rejected(self, operation):
        # a number of conductor 3 is not re-indexed into conductor 15: both conductors are named
        alpha, xi = CycNum.from_terms(3, [(1, 1)]), CycNum.from_terms(5, [(1, 1)])
        with pytest.raises(ValueError, match="conductors 3 and 5 differ"):
            operation(alpha, xi)

    @pytest.mark.parametrize("make", [
        lambda: CycNum(3, [F(1, 2)]), lambda: CycNum(3, [1.0]), lambda: CycNum.from_terms(3, [(F(1, 2), 1)]),
    ], ids=["half", "float", "from_terms-fraction"])
    def test_non_integer_coefficients_are_rejected(self, make):
        with pytest.raises(TypeError, match="is not an integer"):
            make()

    def test_rationality_detection(self):
        xi = CycNum.from_terms(5, [(1, 1)])
        total = sum((CycNum.from_terms(5, [(1, k)]) for k in range(1, 5)), CycNum.from_rational(0, 5))
        assert total.is_rational() and total.as_int() == -1
        assert not xi.is_rational()


from hypothesis import example, given, settings
from hypothesis import strategies as st


def integer_vectors(conductors, width):
    """CycNums of ``width(n)`` integer coefficients at a conductor n that every
    number drawn for one example shares."""
    return st.shared(st.sampled_from(conductors), key=tuple(conductors)).flatmap(
        lambda n: st.lists(st.integers(-3, 3), min_size=width(n), max_size=width(n)).map(
            lambda coeffs: CycNum(n, coeffs)))


def cyclotomic_numbers():
    return integer_vectors([1, 2, 3, 4, 5, 6, 8, 12], euler_phi)


@given(cyclotomic_numbers(), cyclotomic_numbers(), cyclotomic_numbers())
@settings(max_examples=80, deadline=None)
def test_field_axioms(x, y, z):
    assert x * y == y * x
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def unreduced_numbers():
    """A full coefficient vector of length n, integer entries, not reduced mod Phi_n."""
    return integer_vectors([1, 2, 3, 4, 5, 6, 8, 12, 15], lambda n: n)


def embedded(x, k):
    """x as a complex number under zeta_n -> exp(2 pi i k / n), n = x.n."""
    return sum(c * cmath.exp(2j * cmath.pi * e * k / x.n) for e, c in x.terms)


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


@given(unreduced_numbers(), unreduced_numbers(), st.integers(0, 14), st.booleans())
@settings(max_examples=80, deadline=None)
# a conductor-15 vector with terms past phi(15) = 8, which reduction mod Phi_15 folds back
@example(x=CycNum(15, [0, 3, 3, 2, 3, 1, 0, 1, 0, -2, 1, 0, 0, 3, -1]), y=CycNum(15, []), shift=0, rewrite=False)
def test_complex_embeddings_oracle(x, y, shift, rewrite):
    if rewrite:  # the same number as x, written differently: x + zeta^shift Phi_n(zeta)
        y = x + CycNum(x.n, [0] * shift + list(cyclotomic_poly(x.n)))
    n = x.n
    assert y.n == n
    primitive = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    for k in primitive:
        ex, ey = embedded(x, k), embedded(y, k)
        assert close(embedded(x + y, k), ex + ey)
        assert close(embedded(x * y, k), ex * ey)
    # x - y is an algebraic integer, so it is zero iff every embedding is tiny
    assert (x == y) == all(close(embedded(x, k), embedded(y, k)) for k in primitive)
    assert x == y or not rewrite


# the conductor of both matrices of one example
MATRIX_CONDUCTOR = st.shared(st.sampled_from([1, 3, 5, 15]), key="matrix conductor")


@st.composite
def dense_matrices(draw, zero_row=False):
    """A 5x5 matrix at the example's conductor n, each entry up to n integer coefficients."""
    n = draw(MATRIX_CONDUCTOR)
    rows = [[CycNum(n, draw(st.lists(st.integers(-4, 4), max_size=n))) for _ in range(5)] for _ in range(5)]
    if zero_row:
        rows[draw(st.integers(0, 4))] = [CycNum.from_rational(0, n)] * 5
    return CycMatrix(rows)


@st.composite
def monomial_matrices(draw):
    """One entry +-zeta_n^k per row and column, as the catalog generators have."""
    n, perm = draw(MATRIX_CONDUCTOR), draw(st.permutations(range(5)))
    return CycMatrix.from_rows(n, [[[(draw(st.sampled_from([-1, 1])), draw(st.integers(0, n - 1)))]
                                    if perm[i] == j else 0 for j in range(5)] for i in range(5)])


def entrywise_product(a, b):
    """sum_k a_ik b_kj by the number arithmetic of CycNum, one entry at a time."""
    return [[sum((a.rows[i][k] * b.rows[k][j] for k in range(5)), CycNum.from_rational(0, a.n))
             for j in range(5)] for i in range(5)]


@given(st.one_of(dense_matrices(), dense_matrices(zero_row=True), monomial_matrices()),
       st.one_of(dense_matrices(), dense_matrices(zero_row=True), monomial_matrices()))
@settings(max_examples=60, deadline=None)
def test_row_sparse_product_matches_the_entrywise_sum(a, b):
    product = a @ b
    assert product.n == a.n == b.n
    expected = entrywise_product(a, b)
    for i in range(5):
        for j in range(5):
            assert product.rows[i][j].n == product.n
            assert product.rows[i][j] == expected[i][j]
            # and a route through C that shares no code with the kernel
            for k in (1, product.n - 1):
                value = sum(embedded(a.rows[i][m], k) * embedded(b.rows[m][j], k) for m in range(5))
                assert close(embedded(product.rows[i][j], k), value)
    assert product.key() == CycMatrix(expected).key()


def test_equal_numbers_written_differently_share_one_memoised_key():
    one_plus_zeta = CycNum.from_terms(3, [(1, 0), (1, 1)])
    minus_zeta_squared = CycNum.from_terms(3, [(-1, 2)])  # 1 + z + z^2 = 0
    assert one_plus_zeta.terms != minus_zeta_squared.terms
    first, second = CycMatrix([[one_plus_zeta]]), CycMatrix([[minus_zeta_squared]])
    assert first.key() == second.key() and first == second
    hits = cyclotomic_rep._reduce.cache_info().hits
    assert first.key() == second.key()
    assert cyclotomic_rep._reduce.cache_info().hits == hits + 2  # a lookup each, no reduction


def ext_square_oracle(eigenvalues):
    """Sum of all pairwise eigenvalue products lambda_i lambda_j, i < j."""
    total = CycNum.from_rational(0, eigenvalues[0].n)
    for a, b in itertools.combinations(eigenvalues, 2):
        total = total + a * b
    return total


def diag_matrix(n, exponents):
    return CycMatrix.from_rows(n, [
        [[[1, exponents[i]]] if j == i else 0 for j in range(5)] for i in range(5)])


class TestExteriorSquare:
    def test_identity(self):
        assert exterior_square_trace(CycMatrix.identity(5)) == CycNum.from_rational(10)

    def test_type_one_involution(self):
        m = CycMatrix.from_rows(1, [[1 if i == j == 0 else (-1 if i == j else 0)
                                     for j in range(5)] for i in range(5)])
        eigen = [CycNum.from_rational(1)] + [CycNum.from_rational(-1)] * 4
        assert ext_square_oracle(eigen) == CycNum.from_rational(2)
        assert exterior_square_trace(m) == CycNum.from_rational(2)

    def test_order_five_diagonal(self):
        m = diag_matrix(5, [1, 2, 3, 4, 0])
        eigen = [CycNum.from_terms(5, [(1, k)]) for k in (1, 2, 3, 4, 0)]
        assert exterior_square_trace(m) == ext_square_oracle(eigen)
        assert exterior_square_trace(m) == CycNum.from_rational(0, 5)

    def test_all_diagonal_catalog_elements(self):
        # brute-force pairwise-product oracle on every diagonal group element
        checked = 0
        for scenario in catalog.load_catalog().values():
            for g in scenario.group:
                if any(g.rows[i][j] != 0 for i in range(5) for j in range(5) if i != j):
                    continue
                eigen = [g.rows[i][i] for i in range(5)]
                assert exterior_square_trace(g) == ext_square_oracle(eigen)
                checked += 1
        assert checked > 50


PERM_A = [[0, 0, 0, 0, 1],
          [1, 0, 0, 0, 0],
          [0, 1, 0, 0, 0],
          [0, 0, 1, 0, 0],
          [0, 0, 0, 1, 0]]
PERM_B = [[0, 0, 1, 0, 0],
          [0, 1, 0, 0, 0],
          [1, 0, 0, 0, 0],
          [0, 0, 0, 0, 1],
          [0, 0, 0, 1, 0]]


class TestGroupClosure:
    def test_trivial(self):
        g = group_closure([CycMatrix.identity(5)])
        assert g.order == 1

    def test_dihedral_order_ten(self):
        a = CycMatrix.from_rows(1, PERM_A)
        b = CycMatrix.from_rows(1, PERM_B)
        assert group_closure([a, b]).order == 10

    def test_cyclic_order_three(self):
        m = diag_matrix(3, [2, 1, 0, 0, 0])
        assert group_closure([m]).order == 3

    def test_bound_exceeded_for_infinite_group(self):
        shear = CycMatrix.from_rows(1, [
            [1, 1, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1]])
        with pytest.raises(BoundExceeded):
            group_closure([shear], bound=64)

    def test_closure_is_a_group(self):
        a = CycMatrix.from_rows(1, PERM_A)
        b = CycMatrix.from_rows(1, PERM_B)
        g = group_closure([a, b])
        elements = set(m.key() for m in g)
        assert CycMatrix.identity(5).key() in elements
        for x in g:
            for y in g:
                assert (x @ y).key() in elements
        # finite order makes product-closure inverse-closed; spot-check it
        for x in g:
            assert any((x @ y) == CycMatrix.identity(5) for y in g)

    def test_catalog_group_orders(self):
        expected = {
            "trivial": 1, "I": 2, "II": 2, "III(1)": 3, "III(2)": 3, "III(3)": 3,
            "III(4)": 3, "IV(1)": 4, "IV(2)": 4, "V": 5, "XI": 11, "XV": 15,
            "Z2xZ2": 4, "S3": 6, "Z3xZ3": 9, "D2": 4, "D3": 6, "D5": 10, "S3xZ3": 18,
        }
        for label, scenario in catalog.load_catalog().items():
            assert scenario.group.order == expected[label], label

    @pytest.mark.parametrize("n, columns, order", [
        # Phi_12 = x^4 - x^2 + 1 and x + 1 over Q: eigenvalue orders 12 = 2 * 6 and 2
        (1, [[-1, 0, 1, 0], [-1]], 12),
        # x^2 - zeta_30 and x^3 - zeta_30 over Q(zeta_15), with zeta_30 = -zeta_15^8:
        # eigenvalue orders 60 = 30 * 2 and 90 = 30 * 3
        (15, [[[(-1, 8)], 0], [[(-1, 8)], 0, 0]], 180),
    ], ids=["phi12-over-q", "roots-of-zeta30-over-q15"])
    def test_finite_orders_near_the_order_bound(self, n, columns, order):
        # block-diagonal companion matrices, each block given by its last column
        rows, start = [[0] * 5 for _ in range(5)], 0
        for column in columns:
            for i, entry in enumerate(column):
                rows[start + i][start + len(column) - 1] = entry
                if i:
                    rows[start + i][start + i - 1] = 1
            start += len(column)
        assert group_closure([CycMatrix.from_rows(n, rows)]).order == order

    @pytest.mark.parametrize("n", [1, 1000])
    def test_infinite_order_is_rejected_after_a_short_walk(self, monkeypatch, n):
        # L(n) = 60 lcm(2, n); past 2 bit_length(L) powers, g^L != I is found by squaring
        products = []
        original = CycMatrix.__matmul__
        monkeypatch.setattr(CycMatrix, "__matmul__", lambda a, b: products.append(1) or original(a, b))
        shear = CycMatrix.from_rows(n, [[int(i == j or (i, j) == (0, 1)) for j in range(5)] for i in range(5)])
        multiple = 60 * math.lcm(2, n)
        with pytest.raises(BoundExceeded, match=f"order above {min(multiple, 10000)}"):
            group_closure([shear])
        walk = 2 * multiple.bit_length()
        assert walk <= len(products) <= walk + 2 * multiple.bit_length()

    def test_exact_order_above_the_bound_is_rejected_without_walking(self, monkeypatch):
        products = []
        original = CycMatrix.__matmul__
        monkeypatch.setattr(CycMatrix, "__matmul__", lambda a, b: products.append(1) or original(a, b))
        g = diag_matrix(1000, [1, 0, 0, 0, 0])  # order 1000 divides L(1000) = 60000
        with pytest.raises(BoundExceeded, match="order above 500"):
            group_closure([g], bound=500)
        assert len(products) < 250  # walking to the bound would take 500
        # under the bound, the walk goes on to the identity once the order is found
        g = diag_matrix(60, [1, 0, 0, 0, 0])
        assert group_closure([g], bound=100).order == 60

    def test_no_product_is_formed_twice(self, monkeypatch):
        # the powers of each generator seed the closure, so s generators cost
        # |G| s - s products; 188 = sum of |G| s, one per element and generator
        products = []
        original = CycMatrix.__matmul__
        monkeypatch.setattr(CycMatrix, "__matmul__", lambda a, b: products.append(1) or original(a, b))
        expected = 0
        for scenario in catalog.load_catalog().values():
            generators = list(scenario.generators)
            expected += (group_closure(generators).order - 1) * len(generators)
        assert len(products) == expected <= 188


CATALOG_LABELS = ("trivial", "I", "II", "III(1)", "III(2)", "III(3)", "III(4)", "IV(1)", "IV(2)",
                  "V", "XI", "XV", "Z2xZ2", "S3", "Z3xZ3", "D2", "D3", "D5", "S3xZ3")


class TestInvariantDimension:
    def test_trivial_group(self):
        g = group_closure([CycMatrix.identity(5)])
        assert invariant_dimension(g, lambda m: m.trace()) == 5
        assert invariant_dimension(g, exterior_square_trace) == 10

    def test_type_one_involution(self):
        m = CycMatrix.from_rows(1, [[1 if i == j == 0 else (-1 if i == j else 0)
                                     for j in range(5)] for i in range(5)])
        g = group_closure([m])
        assert invariant_dimension(g, lambda x: x.trace()) == 1
        assert invariant_dimension(g, exterior_square_trace) == 6

    def test_order_fifteen(self):
        m = diag_matrix(15, [1, 7, 13, 4, 5])
        g = group_closure([m])
        assert invariant_dimension(g, lambda x: x.trace()) == 0
        assert invariant_dimension(g, exterior_square_trace) == 0

    def test_non_integral_average_rejected(self):
        m = CycMatrix.from_rows(1, [[-1 if i == j else 0 for j in range(5)] for i in range(5)])
        g = group_closure([m])
        with pytest.raises(NonIntegralDimension):
            invariant_dimension(g, lambda x: CycNum.from_rational(1) if x == CycMatrix.identity(5) else CycNum.from_rational(0))

    @pytest.mark.parametrize("label", CATALOG_LABELS)
    def test_conjugation_invariance(self, label):
        scenario = catalog.find_case(label)
        base = scenario.group
        q = invariant_dimension(base, lambda m: m.trace())
        pg = invariant_dimension(base, exterior_square_trace)
        # conjugate the generators by an invertible rational change of basis
        t_rows = [[1, 1, 0, 0, 0],
                  [0, 1, 0, 0, 0],
                  [0, 0, 1, 0, 1],
                  [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 1]]
        t_inv_rows = [[1, -1, 0, 0, 0],
                      [0, 1, 0, 0, 0],
                      [0, 0, 1, 0, -1],
                      [0, 0, 0, 1, 0],
                      [0, 0, 0, 0, 1]]
        n = base[0].n  # the change of basis is taken at the scenario's conductor
        t = CycMatrix.from_rows(n, t_rows)
        t_inv = CycMatrix.from_rows(n, t_inv_rows)
        assert t @ t_inv == CycMatrix.identity(5, n)
        conjugated = [t @ g @ t_inv for g in scenario.generators]
        gc = group_closure(conjugated)
        assert gc.order == base.order
        assert invariant_dimension(gc, lambda m: m.trace()) == q
        assert invariant_dimension(gc, exterior_square_trace) == pg

    def test_dual_representation_agrees(self):
        # invariants of a finite-group representation match those of its dual;
        # checked on two catalog cases by feeding inverse-transpose generators
        for label in ("IV(2)", "XI"):
            scenario = catalog.find_case(label)
            group = scenario.group
            dual_elements = [CycMatrix([list(col) for col in zip(*g.rows)]) for g in group]
            dual = group_closure(dual_elements)
            assert dual.order == group.order
            for chi in (lambda m: m.trace(), exterior_square_trace):
                assert invariant_dimension(dual, chi) == invariant_dimension(group, chi)
