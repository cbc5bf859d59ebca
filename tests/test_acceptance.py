"""Acceptance suite: every exit criterion, at its stated tolerance (exact).

The type III(4) row of table 1 is checked as (c1^2, c2) = (-9, 9), not the
printed (-3, 3).  The printed row cannot occur: the group action alone gives
e(S/G) = 9 by the topological Lefschetz formula, so c2 >= 9, and Noether with
chi = 0 then forces c1^2 = -c2 <= -9.  The catalog's curve data reaches the
same (-9, 9) by the ramification formula.  Both proofs are carried out in
``test_iii4_published_row_unreachable``.
"""

import itertools
import json
import math
import time
from fractions import Fraction as F

import pytest

from fanoquotients import catalog
from fanoquotients import rationality_cases as rc
from fanoquotients.blowdown import contract
from fanoquotients.cyclotomic_rep import (
    CycMatrix,
    CycNum,
    exterior_square_trace,
    group_closure,
    invariant_dimension,
)
from fanoquotients.hj_resolution import (
    CyclicSing,
    ExceptionalChain,
    hj_continued_fraction,
)
from fanoquotients.quotient_engine import euler_quotient

from exact_linalg import QMatrix, chain_solve, is_negative_definite, quadratic_form, solve_linear


# -- criterion 1: both tables, every computed column, exact -----------------

TABLE1_PUBLISHED = [
    # (O, Type, c1^2, c2, q, p_g, chi, g, singularities)
    ("2", "I", 18, 54, 1, 6, 6, "3", "27A1"),
    ("2", "II", 12, 12, 3, 4, 2, "", "A1"),
    ("3", "III(1)", 15, 9, 3, 4, 2, "", ""),
    ("3", "III(2)", 15, 33, 1, 4, 4, "4", "9A2"),
    ("3", "III(3)", 6, 54, 0, 4, 5, "", "27A3,1"),
    # printed as (-3, 3), which no order-3 action with q = 2, p_g = 1 can
    # give; see test_iii4_published_row_unreachable for the proof
    ("3", "III(4)", -9, 9, 2, 1, 0, "", ""),
    ("4", "IV(1)", 6, 18, 1, 2, 2, "4", "6A1+A3"),
    ("4", "IV(2)", 0, 36, 1, 3, 3, "1", "12A1+3A3"),
    ("5", "V", 9, 15, 1, 2, 2, "4", "2A4"),
    ("11", "XI", -5, 17, 0, 0, 1, "", "5A11,3"),
    ("15", "XV", -4, 16, 0, 0, 1, "", "5A3,1+2A15,4"),
]

TABLE2_PUBLISHED = [
    ("(Z/2Z)^2 (type I)", 5, 43, 0, 3, 4, "", "24A1"),
    ("S_3 (type I)", 3, 45, 0, 3, 4, "", "27A1"),
    ("(Z/3Z)^2", 5, 19, 1, 2, 2, "2", "6A2"),
    ("D_2 (type II)", -3, 3, 2, 1, 0, "", ""),
    ("D_3 (type II)", 0, 12, 1, 1, 1, "1", "A1+3A2"),
    ("D_5 (type II)", -2, 2, 1, 0, 0, "0", "A1"),
    ("S_3 x Z/3Z", 1, 23, 0, 1, 2, "", "9A1+3A2"),
]


@pytest.fixture(scope="module")
def rendered_tables():
    start = time.monotonic()
    tables = catalog.run_tables()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"tables took {elapsed:.2f}s, budget is 5s"
    return tables


@pytest.mark.parametrize("published", TABLE1_PUBLISHED, ids=[r[1] for r in TABLE1_PUBLISHED])
def test_criterion_1_table1_rows(rendered_tables, published):
    order, type_label, c1_sq, c2, q, p_g, chi, g, sings = published
    columns, rows = rendered_tables[0]
    row = next(r for r in rows if r["Type"] == type_label)
    assert row["O"] == order
    got = (int(row["c1^2"]), int(row["c2"]), int(row["q"]), int(row["p_g"]),
           int(row["chi"]), row["g"], row["Singularities"])
    assert got == (c1_sq, c2, q, p_g, chi, g, sings)


@pytest.mark.parametrize("published", TABLE2_PUBLISHED, ids=[r[0] for r in TABLE2_PUBLISHED])
def test_criterion_1_table2_rows(rendered_tables, published):
    group, c1_sq, c2, q, p_g, chi, g, sings = published
    columns, rows = rendered_tables[1]
    row = next(r for r in rows if r["G"] == group)
    got = (int(row["c1^2"]), int(row["c2"]), int(row["q"]), int(row["p_g"]),
           int(row["chi"]), row["g"], row["Singularities"])
    assert got == (c1_sq, c2, q, p_g, chi, g, sings)


def test_criterion_1_row_counts_and_exit(rendered_tables):
    assert len(rendered_tables[0][1]) == 11
    assert len(rendered_tables[1][1]) == 7
    from fanoquotients.cli import main

    assert main(["tables"]) == 0


# -- criterion 2: Noether identity ------------------------------------------

ALL_LABELS = ["I", "II", "III(1)", "III(2)", "III(3)", "III(4)", "IV(1)", "IV(2)",
              "V", "XI", "XV", "Z2xZ2", "S3", "Z3xZ3", "D2", "D3", "D5", "S3xZ3"]


@pytest.mark.parametrize("label", ALL_LABELS + ["trivial"])
def test_criterion_2_noether(label):
    r = catalog.find_case(label).report
    assert isinstance(r.c1_sq, int)
    assert 12 * (1 - r.q + r.p_g) == r.c1_sq + r.c2
    assert r.noether_ok


def test_criterion_2_trivial_values():
    r = catalog.find_case("trivial").report
    assert (r.c1_sq, r.c2, r.chi) == (45, 27, 6)
    assert r.c1_sq + r.c2 == 72 == 12 * 6


def _conjugate(z: CycNum) -> CycNum:
    """Complex conjugate in Z[zeta_n], the Galois map zeta -> zeta^-1."""
    return CycNum.from_terms(z.n, [(c, -k) for k, c in z.terms])


def lefschetz_fixed_euler(g: CycMatrix) -> int:
    """e(S^g) by the topological Lefschetz formula, from g acting on 1-forms V.

    H^1(S) = V + conj(V) and H^2(S) = Lambda^2 H^1, so with
    t = tr g + tr g^-1 and t2 = tr g^2 + tr g^-2 the traces on H^0..H^4 are
    1, t, (t^2 - t2)/2, t, 1 (H^3 is dual to H^1 and t is real), giving
    e(S^g) = 2 - 2t + (t^2 - t2)/2.  For g of finite order tr g^-1 is the
    complex conjugate of tr g.  2 e(S^g) = 4 - 4t + t^2 - t2 is computed in
    Z[zeta_n] and halved exactly.
    """
    dim = g.dim
    tr1 = g.trace()
    tr2 = sum((g.rows[i][j] * g.rows[j][i] for i in range(dim) for j in range(dim)),
              CycNum.from_rational(0, g.n))
    t = tr1 + _conjugate(tr1)
    t2 = tr2 + _conjugate(tr2)
    twice = (4 - 4 * t + t * t - t2).as_int()
    assert twice % 2 == 0, f"Lefschetz number {twice}/2 is not an integer"
    return twice // 2


def lefschetz_euler_quotient(group) -> int:
    """e(S/G) = (1/|G|) sum_g e(S^g); reads nothing but the group elements."""
    value = F(sum(lefschetz_fixed_euler(g) for g in group), len(group))
    assert value.denominator == 1, f"e(S/G) = {value} is not an integer"
    return int(value)


def test_iii4_published_row_unreachable():
    """The printed III(4) row (-3, 3) is unreachable; (-9, 9) is forced.

    Curve route.  The catalog data comes from the fixed locus: three disjoint
    pointwise-fixed elliptic curves, each with B^2 = -3 and K.B = 3, and no
    isolated fixed points (so no singularities and c2 = 9).  The ramification
    formula gives 3 c1^2 = (K - 2B)^2 = 45 - 4(K.B - B^2), which is 1 mod 4
    for every divisor B with integer numbers, while the published c1^2 = -3
    would need 3 c1^2 = -9, which is 3 mod 4.  The computed value -9 needs
    3 c1^2 = -27 = 1 mod 4, reached exactly by the catalog data.

    Generator route, which reads no curve, stratum or singularity data.  The
    Lefschetz oracle above, checked against ``euler_quotient`` on every
    catalog case, gives e(S/G) = 9 for III(4).  Since c2(Z) >= e(S/G),
    c2 = 3 cannot occur, and Noether with chi = 0 gives c1^2 = -c2 <= -9.
    The row's own q = 2 and p_g = 1 force the eigenvalues
    (zeta, zeta, zeta, 1, 1) up to Galois for any order-3 action, so the
    printed row contradicts itself whatever the catalog holds.
    """
    r = catalog.find_case("III(4)").report
    assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi) == (-9, 9, 2, 1, 0)
    assert r.noether_ok
    for t in range(-200, 201):  # t = K.B - B^2 over any plausible range
        assert 45 - 4 * t != 3 * (-3)
        assert (45 - 4 * t) % 4 == 1
    assert 3 * (-3) % 4 == 3 and 3 * (-9) % 4 == 1
    assert 45 - 4 * (9 + 9) == 3 * (-9)
    # and the Euler side: three elliptic curves have stratum Euler number 0,
    # so e(S/G) = (1/3)(27 + 2*0) = 9, never 3
    scenario = catalog.find_case("III(4)")
    assert [s.euler for s in scenario.strata] == [0]
    assert r.euler_quotient == 9 and r.exceptional_components == 0

    # the Lefschetz oracle agrees with the stratified Euler sum everywhere
    cases = catalog.load_catalog()
    assert len(cases) == 19
    for case in cases.values():
        assert lefschetz_euler_quotient(case.group) == euler_quotient(case), case.label

    # from the generator alone: e(S/G) = 9, so c2 >= 9 > 3 and c1^2 <= -9
    e_quotient = lefschetz_euler_quotient(group_closure(list(scenario.generators)))
    assert e_quotient == 9 > 3
    assert r.c2 == e_quotient + r.exceptional_components >= e_quotient
    assert 12 * r.chi - e_quotient == -9 < -3

    # q = 2 and p_g = 1 force eigenvalues (zeta, zeta, zeta, 1, 1) up to
    # Galois; exponents k stand for zeta_3^k on a diagonal basis of V
    forced = []
    for exps in itertools.combinations_with_replacement(range(3), 5):
        if not any(exps):
            continue  # the identity is not an order-3 action
        q = exps.count(0)
        p_g = sum(1 for a, b in itertools.combinations(exps, 2) if (a + b) % 3 == 0)
        if (q, p_g) == (2, 1):
            forced.append(exps)
    assert forced == [(0, 0, 1, 1, 1), (0, 0, 2, 2, 2)]
    for exps in forced:
        g = CycMatrix.from_rows(3, [[[(1, k)] if i == j else 0 for j in range(5)]
                                    for i, k in enumerate(exps)])
        group = group_closure([g])
        assert len(group) == 3
        assert invariant_dimension(group, CycMatrix.trace) == 2
        assert invariant_dimension(group, exterior_square_trace) == 1
        assert lefschetz_fixed_euler(g) == 0
        assert lefschetz_euler_quotient(group) == 9


# -- criterion 3: Hirzebruch-Jung suite --------------------------------------

def test_criterion_3_full_sweep_under_one_second():
    start = time.monotonic()
    for n in range(2, 201):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            chain = hj_continued_fraction(n, q)
            # integer round-trip: fold the continued fraction via convergents
            num, den = chain[-1], 1
            for b in reversed(chain[:-1]):
                num, den = b * num - den, num
            assert (num, den) == (n, q)
            a = chain_solve(chain, [2 - b for b in chain])
            # verify M a = (2 - b) over the integers after clearing the
            # common denominator n; a is in lowest terms, so n a is integral
            # exactly when each denominator divides n
            assert all(n % x.denominator == 0 for x in a)
            s = [x.numerator * (n // x.denominator) for x in a]
            k = len(chain)
            for i in range(k):
                lhs = -chain[i] * s[i]
                if i > 0:
                    lhs += s[i - 1]
                if i + 1 < k:
                    lhs += s[i + 1]
                assert lhs == n * (2 - chain[i])
            if all(b == 2 for b in chain):
                assert all(x == 0 for x in a)
                assert ExceptionalChain.from_selfints(chain).k2_correction() == 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s, budget is 1s"


def test_criterion_3_classification_chains():
    assert CyclicSing(2, 1).chain().selfints == (2,)                # A1
    assert CyclicSing(3, 2).chain().selfints == (2, 2)              # A2
    assert CyclicSing(4, 3).chain().selfints == (2, 2, 2)           # A3
    assert CyclicSing(3, 1).chain().selfints == (3,)
    assert CyclicSing(11, 3).chain().selfints in ((3, 4), (4, 3))
    assert CyclicSing(15, 4).chain().selfints == (4, 4)
    assert ExceptionalChain.from_selfints((3, 4)).discrepancies == (F(6, 11), F(7, 11))
    assert ExceptionalChain.from_selfints((4, 4)).discrepancies == (F(2, 3), F(2, 3))
    assert ExceptionalChain.from_selfints((3,)).discrepancies == (F(1, 3),)
    assert CyclicSing(2, 1).chain().k2_correction() == 0
    assert CyclicSing(4, 3).chain().k2_correction() == 0


# -- criterion 4: the Diophantine stages -------------------------------------

def test_criterion_4_stage1_exact():
    assert set(rc.klein_stage1()) == {
        (4, 1, 1, 1), (1, 3, 2, 1), (5, 4, 1, 0), (5, 15, 1, 0),
        (1, 3, 5, 0), (4, 1, 0, 5), (9, 5, 0, 1), (20, 5, 0, 1)}
    assert len(rc.klein_stage1()) == 8


def test_criterion_4_stage2_exact():
    stage2 = rc.klein_stage2(rc.klein_stage1())
    assert stage2.first_pair == (1, 3)
    assert set(stage2.survivors) == {(4, 1, 5, 4), (5, 4, 4, 1)}
    assert set(stage2.w_candidates) == {(2, 1), (2, 2), (5, 1), (1, 5)}


# -- criterion 5: the certificates -------------------------------------------

def test_criterion_5_xv_certificate():
    scenario = catalog.find_case("XV")
    start = time.monotonic()
    cert = rc.certify_rationality(scenario)["xv"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert len(cert.contractions) == 4
    assert cert.final_self_intersection == 0
    final = cert.final_config
    assert final.arithmetic_genus(cert.final_curve) == 0


@pytest.mark.parametrize("case", ["klein-option-1", "klein-option-2"])
def test_criterion_5_klein_certificates(case):
    scenario = catalog.find_case("XI")
    start = time.monotonic()
    cert = rc.certify_rationality(scenario)[case]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    mid = cert.states[5]
    assert mid.self_int("A13") == -1 and mid.k_degree("A13") == -1
    assert mid.self_int("A45") == -1 and mid.k_degree("A45") == -1
    assert mid.pair("A13", "A45") == 1
    assert cert.final_self_intersection >= 0
    assert cert.final_config.arithmetic_genus(cert.final_curve) == 0


# -- criterion 6: intermediate values asserted in the builds ------------------

def test_criterion_6_xv_intermediates():
    assert rc.elliptic_pair(rc.XV_CYCLE, rc.XV_CYCLE) == -5
    assert rc.elliptic_pair(rc.XV_CYCLE, rc.XV_PENTAGRAM) == 5
    config = rc.build_xv_config()   # raises MatrixMismatch on any failure
    assert config.self_int("H") == -2 and config.self_int("L") == -2
    assert config.pair("H", "L") == 0
    assert config.self_int("A") == -1 and config.self_int("B") == -1
    assert config.k_degree("A") == -1 and config.k_degree("B") == -1


@pytest.mark.parametrize("option", [(4, 1, 5, 4), (5, 4, 4, 1)])  # the stage-2 survivors
def test_criterion_6_klein_intermediates(option):
    config = rc.build_klein_config(option)   # raises on any failed check
    for name in ("D13", "D25", "D14", "D23", "D45"):
        assert config.self_int(name) == -1
        assert config.k_degree(name) == -1
    for a, b in itertools.combinations(("D13", "D25", "D14", "D23", "D45"), 2):
        assert config.pair(a, b) == 0


# -- criterion 7: headless property suites ------------------------------------

def test_criterion_7_solve_and_definiteness_oracles():
    m = QMatrix([[-3, 1], [1, -4]])
    x = solve_linear(m, [-1, -2])
    assert m.matvec(x) == (F(-1), F(-2))
    grid = [F(k, 2) for k in range(-4, 5)]
    vectors = [(a, b) for a in grid for b in grid if (a, b) != (0, 0)]
    assert is_negative_definite(m) == all(quadratic_form(m, v) < 0 for v in vectors)
    indefinite = QMatrix([[-1, 2], [2, -1]])
    assert is_negative_definite(indefinite) == all(
        quadratic_form(indefinite, v) < 0 for v in vectors)


def test_criterion_7_exterior_square_oracle_on_catalog():
    checked = 0
    for scenario in catalog.load_catalog().values():
        for g in scenario.group:
            if any(g.rows[i][j] != 0 for i in range(5) for j in range(5) if i != j):
                continue
            eigen = [g.rows[i][i] for i in range(5)]
            brute = CycNum.from_rational(0, g.n)
            for a, b in itertools.combinations(eigen, 2):
                brute = brute + a * b
            assert exterior_square_trace(g) == brute
            checked += 1
    assert checked > 50


def test_criterion_7_blowdown_adjunction_and_commutativity():
    state = rc.build_xv_config()
    for name in ("A", "B", "Tm", "H"):
        state = contract(state, name)
        for curve in state.names:
            assert state.arithmetic_genus(curve) == 0
    config = rc.build_klein_config((5, 4, 4, 1))
    ab = contract(contract(config, "D13"), "D45")
    ba = contract(contract(config, "D45"), "D13")
    for a in ab.names:
        for b in ab.names:
            assert ab.pair(a, b) == ba.pair(a, b)


def test_criterion_7_chain_reversal_invariance():
    for n in range(2, 80):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            chain = hj_continued_fraction(n, q)
            assert (ExceptionalChain.from_selfints(chain).k2_correction()
                    == ExceptionalChain.from_selfints(chain[::-1]).k2_correction())


# -- criterion 8: annotations stay annotations --------------------------------

def test_criterion_8_annotations_not_computed():
    payload = catalog.report_to_json_dict(catalog.find_case("XI"))
    computed = payload["computed"]
    assert "minimal" not in computed and "kodaira" not in computed
    assert payload["annotations"]["minimal"] == "no"
    assert payload["annotations"]["kodaira"] == "-oo"


def test_criterion_8_annotation_columns_are_marked():
    for _, rows in catalog.run_tables():
        for row in rows:
            assert row["Min"].endswith("*")
            assert "*" in row["kappa"]


def test_criterion_8_certified_marker_reflects_actual_certificates():
    columns, rows = catalog.run_tables()[0]
    by_type = {row["Type"]: row for row in rows}
    assert "certified" in by_type["XI"]["kappa"]
    assert "certified" in by_type["XV"]["kappa"]
    assert "certified" not in by_type["V"]["kappa"]
