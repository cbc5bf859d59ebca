from fractions import Fraction as F

import pytest

from fanoquotients import blowdown, catalog, quotient_engine
from fanoquotients.cyclotomic_rep import CycMatrix, CycNum, FiniteMatrixGroup, NonIntegralDimension, group_closure
from fanoquotients.hj_resolution import CyclicSing
from fanoquotients.quotient_engine import (
    NonIntegralEuler,
    NonIntegralGenus,
    Stratum,
    albanese_fiber_genus,
    euler_quotient,
    full_report,
    group_invariants,
    k2_quotient,
)

from test_acceptance import lefschetz_euler_quotient as per_element_oracle


def case(label):
    return catalog.find_case(label)


class TestEulerQuotient:
    def test_type_one_involution(self):
        assert euler_quotient(case("I")) == 27

    def test_order_eleven(self):
        assert euler_quotient(case("XI")) == 7

    def test_trivial_group(self):
        assert euler_quotient(case("trivial")) == 27

    def test_no_generators_close_to_the_identity(self):
        group = group_closure([])
        assert group.order == 1 and group[0] == CycMatrix.identity(5)
        assert case("trivial").group == group

    def test_non_integral_rejected(self):
        bad = case("V")._replace(label="V-bad", strata=(Stratum(5, 3),))
        with pytest.raises(NonIntegralEuler):
            euler_quotient(bad)


LABELS = ("trivial", "I", "II", "III(1)", "III(2)", "III(3)", "III(4)", "IV(1)", "IV(2)", "V", "XI", "XV",
          "Z2xZ2", "S3", "Z3xZ3", "D2", "D3", "D5", "S3xZ3")
# P = I + N, N the superdiagonal ones, and its inverse, the full triangle of (-1)^(j-i)
P = [[int(j in (i, i + 1)) for j in range(5)] for i in range(5)]
P_INV = [[(-1) ** (j - i) if j >= i else 0 for j in range(5)] for i in range(5)]


class TestLefschetzEulerQuotient:
    """e(S/G) = 2 - 4q + 2p_g + <chi, chi> from the stored characters, against the per-element
    Lefschetz numbers of the acceptance suite and the strata sum."""

    @pytest.mark.parametrize("label", LABELS)
    def test_matches_the_per_element_oracle(self, label):
        group = case(label).group
        assert group_invariants(group).euler == per_element_oracle(group) == euler_quotient(case(label))

    @pytest.mark.parametrize("label", ["XI", "XV"])
    def test_dense_conjugates(self, label):
        n = case(label).generators[0].n  # P is taken at the scenario's conductor
        p, p_inv = CycMatrix.from_rows(n, P), CycMatrix.from_rows(n, P_INV)
        assert p @ p_inv == CycMatrix.identity(5, n)
        group = group_closure([p @ g @ p_inv for g in case(label).generators])
        assert sum(e != 0 for g in group for row in g.rows for e in row) > 10 * len(group)
        assert group_invariants(group).euler == per_element_oracle(group) == euler_quotient(case(label))

    @pytest.mark.parametrize("label, shift", [
        ("I", CycNum.from_rational(1)), ("III(1)", CycNum.from_terms(3, [(1, 1)])),
    ], ids=["odd-total", "irrational"])
    def test_non_integral_character_sum_rejected(self, monkeypatch, label, shift):
        # I has order 2: moving one trace by 1 changes the total by an odd number;
        # III(1) has conductor 3, and moving one trace by zeta_3 takes the total out of Q.
        # q's average reads the shifted trace before the Lefschetz sum does
        group = group_closure(list(case(label).generators))
        original = FiniteMatrixGroup.character

        def shifted(self, chi):
            values = original(self, chi)
            return (values[0] + shift, *values[1:]) if chi is CycMatrix.trace else values

        monkeypatch.setattr(FiniteMatrixGroup, "character", shifted)
        with pytest.raises(NonIntegralDimension):
            group_invariants(group)

    def test_non_integral_norm_sum_rejected(self, monkeypatch):
        # q and p_g average as before; only sum s conj(s), the one character sum of the engine, moves by 1
        group = group_closure(list(case("I").generators))
        original = quotient_engine.character_sum
        monkeypatch.setattr(quotient_engine, "character_sum", lambda values, weights=(): original(values, weights) + 1)
        with pytest.raises(NonIntegralEuler, match="Lefschetz average"):
            group_invariants(group)


class TestRationalTraceBound:
    """A walk that reaches its threshold rejects a power with a rational trace above the dimension:
    an element of finite order has roots of unity as eigenvalues, so no group element has one."""

    @pytest.mark.parametrize("label, dense", [*((label, False) for label in LABELS), ("XI", True), ("XV", True)])
    def test_no_element_has_a_rational_trace_above_the_dimension(self, label, dense):
        generators = list(case(label).generators)
        if dense:  # the conjugates of TestLefschetzEulerQuotient.test_dense_conjugates
            n = generators[0].n
            p, p_inv = CycMatrix.from_rows(n, P), CycMatrix.from_rows(n, P_INV)
            generators = [p @ g @ p_inv for g in generators]
        traces = [g.trace() for g in group_closure(generators)]
        assert all(abs(t.as_int()) <= 5 for t in traces if t.is_rational())


def exceptional_components(singularities):
    return full_report(case("trivial")._replace(singularities=singularities)).exceptional_components


class TestExceptionalComponents:
    def test_nodes(self):
        assert exceptional_components(((CyclicSing(2, 1), 27),)) == 27

    def test_klein_points(self):
        assert exceptional_components(((CyclicSing(11, 3), 5),)) == 10

    def test_empty(self):
        assert exceptional_components(()) == 0


class TestK2Quotient:
    def test_type_one(self):
        assert k2_quotient(case("I")) == 18

    def test_type_two(self):
        assert k2_quotient(case("II")) == 12

    def test_dihedral_five(self):
        assert k2_quotient(case("D5")) == -2

    def test_etale_case(self):
        assert k2_quotient(case("III(1)")) == 15


class TestInvariantDimensions:
    def test_irregularity(self):
        assert full_report(case("III(4)")).q == 2
        assert full_report(case("trivial")).q == 5
        assert full_report(case("D3")).q == 1

    def test_geometric_genus(self):
        assert full_report(case("I")).p_g == 6
        assert full_report(case("D5")).p_g == 0
        assert full_report(case("trivial")).p_g == 10


class TestAlbaneseFiberGenus:
    @pytest.mark.parametrize("data, expected", [
        ((7, 2, 4), 3),
        ((10, 6, 18), 1),
        ((16, 10, 50), 0),
        ((9, 1, 0), 9),
    ])
    def test_values(self, data, expected):
        assert albanese_fiber_genus(*data) == expected

    def test_non_integral(self):
        assert NonIntegralGenus is blowdown.NonIntegralGenus
        with pytest.raises(NonIntegralGenus):
            albanese_fiber_genus(7, 2, 3)
        with pytest.raises(NonIntegralGenus):
            albanese_fiber_genus(2, 10, 50)


class TestFullReport:
    def test_klein_case(self):
        r = full_report(case("XI"))
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi) == (-5, 17, 0, 0, 1)
        assert r.h11 == 15
        assert r.noether_ok

    def test_type_two_involution(self):
        r = full_report(case("II"))
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi, r.h11) == (12, 12, 3, 4, 2, 14)

    def test_nine_torsion(self):
        r = full_report(case("Z3xZ3"))
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi, r.h11) == (5, 19, 1, 2, 2, 17)
        assert r.fiber_genus == 2

    def test_fractional_contributions_combine_to_integers(self):
        r = full_report(case("XI"))
        assert r.k2_quotient == F(45, 11)
        assert r.k2_correction == F(-100, 11)
        assert isinstance(r.c1_sq, int)

    def test_etale_case_scales_exactly(self):
        r = full_report(case("III(1)"))
        assert r.c1_sq == F(45, 3) == 15
        assert r.c2 == F(27, 3) == 9

    def test_noether_failure_is_flagged_not_raised(self):
        # a wrong singularity count, 3A4 for 2A4: c2 = 7 + 3 * 4 (the input of the CLI's Noether tests)
        (a4, _), = case("V").singularities
        report = full_report(case("V")._replace(label="V-bad", singularities=((a4, 3),)))
        assert not report.noether_ok
        assert report.flags == ("Noether violated: 12*2 != 9 + 19",)

    def test_c2_reads_the_group_not_the_strata(self):
        # the group checks refuse a stratum Euler number that disagrees; the report never reads one
        bad = case("V")._replace(label="V-bad", strata=(Stratum(5, 7),))
        assert euler_quotient(bad) == 11
        assert full_report(bad).c2 == full_report(case("V")).c2 == 15
