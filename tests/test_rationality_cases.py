import itertools
from fractions import Fraction as F

import pytest

from fanoquotients import catalog
from fanoquotients import rationality_cases as rc
from fanoquotients.blowdown import CurveConfig, find_rationality_certificate
from fanoquotients.mumford import ResolutionModel
from fanoquotients.quotient_engine import NonIntegralGenus, QuotientScenario


STAGE1_EXPECTED = {
    (4, 1, 1, 1), (1, 3, 2, 1), (5, 4, 1, 0), (5, 15, 1, 0),
    (1, 3, 5, 0), (4, 1, 0, 5), (9, 5, 0, 1), (20, 5, 0, 1),
}
STAGE2_SURVIVORS = ((4, 1, 5, 4), (5, 4, 4, 1))


def annotated(label, annotations):
    """The catalog case ``label``, rebuilt with other annotations."""
    s = catalog.find_case(label)
    return QuotientScenario(label=s.label, generators=s.generators, strata=s.strata, ramification=s.ramification,
                            singularities=s.singularities, fibration=s.fibration, annotations=annotations,
                            display=s.display, table=s.table, source=s.source)


def full_box_stage1(budget, search_bound=50):
    """Test-local oracle: stage 1 by brute force over the whole box [0, search_bound]^4."""
    lattice_pairs = []
    for v1 in range(search_bound + 1):
        for v2 in range(search_bound + 1):
            a, b = 4 * v1 + v2, v1 + 3 * v2
            if 1 <= a <= search_bound and 1 <= b <= search_bound:
                lattice_pairs.append((a, b))
    solutions = []
    for u1 in range(search_bound + 1):
        for u2 in range(search_bound + 1):
            if 4 * u1 + u2 < 1 or u1 + 3 * u2 < 1:
                continue
            for a14, b14 in lattice_pairs:
                if a14 * u1 + b14 * u2 == budget:
                    solutions.append((a14, b14, u1, u2))
    assert all(max(s) < search_bound for s in solutions)
    return sorted(solutions)


class TestKleinStage1:
    def test_exact_solution_set(self):
        assert set(rc.klein_stage1()) == STAGE1_EXPECTED

    def test_solution_count(self):
        assert len(rc.klein_stage1()) == 8

    def test_zero_budget_is_empty(self):
        assert rc.klein_stage1(budget=0) == []

    @pytest.mark.parametrize("budget", range(11))
    def test_agrees_with_the_full_box(self, budget):
        assert rc.klein_stage1(budget=budget) == full_box_stage1(budget)


class TestKleinStage2:
    def test_first_pair(self):
        stage2 = rc.klein_stage2(rc.klein_stage1())
        assert stage2.first_pair == (1, 3)

    def test_survivors(self):
        stage2 = rc.klein_stage2(rc.klein_stage1())
        assert set(stage2.survivors) == {(4, 1, 5, 4), (5, 4, 4, 1)}

    def test_w_candidates(self):
        stage2 = rc.klein_stage2(rc.klein_stage1())
        assert set(stage2.w_candidates) == {(2, 1), (2, 2), (5, 1), (1, 5)}

    def test_even_candidate_eliminated_by_parity(self):
        stage2 = rc.klein_stage2(rc.klein_stage1())
        assert stage2.candidates_per_w[(2, 2)] == ()

    @pytest.mark.parametrize("stage1, budget, message", [
        ([(1, 1, 1, 0)], 5, "sum vector (5,2) leaves the integrality lattice"),
        ([(5, 15, 1, 0)], 5, "every (a13, b13) candidate fails integrality"),
        ([(1, 3, 2, 1), (4, 1, 1, 1)], 10, "ambiguous first pair: [(4, 1), (2, 6)]"),
    ], ids=["sum-off-lattice", "no-first-pair", "ambiguous-first-pair"])
    def test_failure_paths(self, stage1, budget, message):
        with pytest.raises(rc.NoSolution) as excinfo:
            rc.klein_stage2(stage1, budget=budget)
        assert str(excinfo.value) == message


class TestKleinConfig:
    @pytest.mark.parametrize("option", STAGE2_SURVIVORS)
    def test_five_disjoint_minus_one_curves(self, option):
        config = rc.build_klein_config(option)
        d_names = [n for n in config.names if n.startswith("D")]
        assert len(d_names) == 5
        for name in d_names:
            assert config.self_int(name) == -1
            assert config.k_degree(name) == -1
            assert config.genus(name) == 0
        for a, b in itertools.combinations(d_names, 2):
            assert config.pair(a, b) == 0

    def test_incidence_vectors_for_second_option(self):
        config = rc.build_klein_config((5, 4, 4, 1))
        d_order = ["D13", "D25", "D14", "D23", "D45"]
        assert [config.pair("A13", d) for d in d_order] == [0, 0, 1, 1, 0]
        assert [config.pair("B13", d) for d in d_order] == [1, 0, 0, 1, 0]
        assert config.pair("D14", "A13") == 1
        assert config.pair("D14", "A45") == 1
        assert config.pair("D23", "A13") == 1
        assert config.pair("D23", "A25") == 1

    def test_all_cross_intersections_are_nonnegative_integers(self):
        for option in STAGE2_SURVIVORS:
            config = rc.build_klein_config(option)
            for i, a in enumerate(config.names):
                for b in config.names[i + 1:]:
                    value = config.pair(a, b)
                    assert value.denominator == 1 and value >= 0

    def test_rejects_non_survivor(self):
        with pytest.raises(ValueError):
            rc.build_klein_config((1, 3, 9, 5))


class TestEllipticLattice:
    def test_pairing_rules_all_pairs(self):
        lattice = rc.EllipticLattice()
        indices = list(itertools.combinations(range(1, 6), 2))
        assert len(indices) == 10
        for ij, st in itertools.combinations_with_replacement(indices, 2):
            value = lattice.pair(ij, st)
            overlap = len({*ij, *st})
            if overlap == 2:
                assert value == -3
            elif overlap == 3:
                assert value == 0
            else:
                assert value == 1

    def test_orbit_divisors(self):
        lattice = rc.EllipticLattice()
        assert lattice.divisor_pair(rc.XV_CYCLE, rc.XV_CYCLE) == -5
        assert lattice.divisor_pair(rc.XV_PENTAGRAM, rc.XV_PENTAGRAM) == -5
        assert lattice.divisor_pair(rc.XV_CYCLE, rc.XV_PENTAGRAM) == 5


class TestXvConfig:
    def test_matrix_matches_expected(self):
        config = rc.build_xv_config()
        assert config.names == ("A", "B", "Tm", "H", "L")
        expected = [
            [-1, 0, 1, 0, 0],
            [0, -1, 1, 0, 0],
            [1, 1, -3, 1, 1],
            [0, 0, 1, -2, 0],
            [0, 0, 1, 0, -2],
        ]
        assert [[int(x) for x in row] for row in config.matrix] == expected

    def test_canonical_degrees(self):
        config = rc.build_xv_config()
        assert [int(k) for k in config.k_degrees] == [-1, -1, 1, 0, 0]

    def test_all_genus_zero(self):
        assert set(rc.build_xv_config().genera) == {0}


class TestCertifyRationality:
    def test_xv_four_contractions(self):
        cert = rc.certify_rationality(catalog.find_case("XV"))["xv"]
        assert len(cert.contractions) == 4
        assert cert.final_self_intersection == 0
        assert cert.final_config.genus(cert.final_curve) == 0

    @pytest.mark.parametrize("case", ["klein-option-1", "klein-option-2"])
    def test_klein_certificates(self, case):
        cert = rc.certify_rationality(catalog.find_case("XI"))[case]
        # the five disjoint curves go first, and the configuration then
        # contains the two (-1)-curves meeting once
        assert set(cert.contractions[:5]) == {"D13", "D25", "D14", "D23", "D45"}
        mid = cert.states[5]
        assert mid.self_int("A13") == -1
        assert mid.self_int("A45") == -1
        assert mid.pair("A13", "A45") == 1
        assert cert.final_self_intersection >= 0

    def test_regularity_guard(self):
        d3 = annotated("D3", {"rationality_case": "xv"})
        with pytest.raises(rc.NoCertificate, match="irregularity 1 != 0"):
            rc.certify_rationality(d3)

    def test_unknown_case(self):
        xi = annotated("XI", {"rationality_case": "klein-option-3"})
        with pytest.raises(rc.NoCertificate, match="no rationality case"):
            rc.certify_rationality(xi)

    def test_no_certificate_for_rigid_config(self):
        config = CurveConfig(("C",), ((-2,),), (0,), (0,))
        assert find_rationality_certificate(config) is None

    def test_contraction_count_must_match_the_proof(self, monkeypatch):
        order, chains, _ = rc._PROOFS["xv"]
        monkeypatch.setitem(rc._PROOFS, "xv", (order, chains, 5))
        with pytest.raises(rc.NoCertificate, match="xv: 4 contractions, but the xv proof predicts 5"):
            rc.certify_rationality(catalog.find_case("XV"))

    def test_one_extra_minus_one_curve_fails_the_count(self, monkeypatch):
        # (K^2, c2) = (-4, 16) moves only to (1, 11): the bookkeeping bound cannot see it
        config = with_minus_one_curves_first(rc.build_xv_config(), 1)
        monkeypatch.setattr(rc, "build_xv_config", lambda: config)
        with pytest.raises(rc.NoCertificate, match="xv: 5 contractions, but the xv proof predicts 4"):
            rc.certify_rationality(catalog.find_case("XV"))

    def test_bookkeeping_bound(self, monkeypatch):
        # 13 contractions take (K^2, c2) = (-4, 16) to (9, 3), which a surface holding
        # a curve of square 0 cannot reach
        config = with_minus_one_curves_first(rc.build_xv_config(), 9)
        monkeypatch.setattr(rc, "build_xv_config", lambda: config)
        with pytest.raises(rc.NoCertificate, match=r"xv: 13 contractions take \(K\^2, c2\) to \(9, 3\), "
                                                   r"beyond K\^2 <= 8 and c2 >= 4"):
            rc.certify_rationality(catalog.find_case("XV"))


def with_minus_one_curves_first(config, count):
    """``config`` plus ``count`` disjoint (-1)-curves listed first, so the search contracts them first."""
    width = count + len(config.names)
    matrix = [tuple(-(i == j) for j in range(width)) for i in range(count)]
    matrix += [(0,) * count + row for row in config.matrix]
    return CurveConfig(tuple(f"E{i}" for i in range(count)) + config.names, tuple(matrix),
                       (-1,) * count + config.k_degrees, (0,) * count + config.genera)


class TestIntegralityOnTheResolution:
    # each model's expected block is the one its curves should have met, so these
    # also check that integrality is tested before the expected configuration
    ONE_MINUS_ONE_CURVE = (((-1,),), (-1,))

    def one_curve_model(self, self_int, k_degree):
        return ResolutionModel.build({}, ("C",), {("C", "C"): self_int}, {"C": k_degree}, {})

    def test_fractional_self_intersection(self):
        # adjunction gives the integer genus 1 + (-1/2 - 3/2)/2 = 0, yet C cannot live on Z
        model = self.one_curve_model(F(-1, 2), F(-3, 2))
        with pytest.raises(rc.IntegralityViolation, match=r"^C\.C = -1/2$"):
            rc._config_from_model(model, ["C"], self.ONE_MINUS_ONE_CURVE)

    def test_fractional_k_degree(self):
        with pytest.raises(rc.IntegralityViolation, match=r"^K\.C = -1/2$"):
            rc._config_from_model(self.one_curve_model(-1, F(-1, 2)), ["C"], self.ONE_MINUS_ONE_CURVE)

    def test_negative_distinct_pairing(self):
        pairing = {("C", "C"): -1, ("D", "D"): -1, ("C", "D"): -1}
        model = ResolutionModel.build({}, ("C", "D"), pairing, {"C": -1, "D": -1}, {})
        with pytest.raises(rc.IntegralityViolation, match=r"^C\.D = -1$"):
            rc._config_from_model(model, ["C", "D"], (((-1, 0), (0, -1)), (-1, -1)))

    @pytest.mark.parametrize("self_int, message", [
        (-1, r"^genus 1/2 is not a nonnegative integer$"),  # C^2 + K.C odd
        (-4, r"^genus -1 is not a nonnegative integer$"),
    ])
    def test_adjunction_rejects_the_curve(self, self_int, message):
        # integral, and with no expected block to compare: adjunction is the one genus check left
        with pytest.raises(NonIntegralGenus, match=message):
            rc._config_from_model(self.one_curve_model(self_int, 0), ["C"], ((), ()))

    def test_configurations_hold_ints(self):
        for config in (rc.build_xv_config(), rc.build_klein_config(STAGE2_SURVIVORS[0])):
            assert all(type(x) is int for row in config.matrix for x in (*row, *config.k_degrees))


class TestWrongConfigurationFails:
    """A configuration that differs from its proof's expected block raises ``MatrixMismatch``,
    naming the first entry that differs, before adjunction sees it."""

    @pytest.mark.parametrize("option", STAGE2_SURVIVORS)
    @pytest.mark.parametrize("constant, value, message", [
        # D^2 = 16/11 - 16/11 = 0: integral, but adjunction would give genus 1/2
        ("_INCIDENCE_SQ", 16, r"^D13\.D13 = 0, expected -1$"),
        # K.D = 26/11 - 26/11 = 0, with D^2 = -1 still
        ("_INCIDENCE_K", 26, r"^K\.D13 = 0, expected -1$"),
    ], ids=["square", "k-degree"])
    def test_klein_incidence_divisor_changed(self, monkeypatch, option, constant, value, message):
        monkeypatch.setattr(rc, constant, value)
        with pytest.raises(rc.MatrixMismatch, match=message):
            rc.build_klein_config(option)

    def test_xv_k_degree_of_tm(self, monkeypatch):
        monkeypatch.setattr(rc, "_XV_K_DEGREES", (-1, -1, 2, 0, 0))
        with pytest.raises(rc.MatrixMismatch, match=r"^K\.Tm = 1, expected 2$"):
            rc.build_xv_config()

    def test_xv_matrix_entry(self, monkeypatch):
        matrix = [list(row) for row in rc._XV_MATRIX]
        matrix[3][4] = matrix[4][3] = 1
        monkeypatch.setattr(rc, "_XV_MATRIX", matrix)
        with pytest.raises(rc.MatrixMismatch, match=r"^H\.L = 0, expected 1$"):
            rc.build_xv_config()

    def test_mismatch_is_a_one_line_exit_one(self, monkeypatch, capsys):
        from fanoquotients.cli import main

        monkeypatch.setattr(rc, "_INCIDENCE_SQ", 16)
        assert main(["rationality", "klein"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "D13.D13 = 0, expected -1\n")


class TestTranscripts:
    def test_klein_transcript_content(self):
        text, certs = rc.transcript(catalog.find_case("XI"))
        assert "stage 1" in text and "stage 2" in text
        assert "(a13, b13) = (1, 3)" in text
        assert set(certs) == {"klein-option-1", "klein-option-2"}

    def test_xv_transcript_content(self):
        text, certs = rc.transcript(catalog.find_case("XV"))
        assert "E1.E2 = 5" in text
        assert "4 blow-downs" in text
        assert certs["xv"].to_json_dict()["final_self_intersection"] == "0"
