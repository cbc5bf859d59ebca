import os
import pathlib
import subprocess
import sys

import pytest

from fanoquotients.blowdown import (
    CurveConfig,
    NonIntegralGenus,
    NotMinusOneCurve,
    contract,
    find_rationality_certificate,
)
from fanoquotients import catalog
from fanoquotients.rationality_cases import build_klein_config, build_xv_config, certify_rationality

from exact_linalg import QMatrix, inertia

SRC = pathlib.Path(__file__).parent.parent / "src"


def simple_config(matrix, k, names=None):
    n = len(matrix)
    return CurveConfig(tuple(names or (f"C{i}" for i in range(n))), tuple(map(tuple, matrix)), tuple(k))


class TestBuild:
    def test_odd_adjunction_parity_has_no_genus(self):
        # C^2 + K.C is even for every curve on a smooth surface
        with pytest.raises(NonIntegralGenus, match="^C0: genus 1/2 is not a nonnegative integer$"):
            simple_config([[0]], [-1])
        with pytest.raises(NonIntegralGenus, match="^C0: genus 1/2 is not a nonnegative integer$"):
            CurveConfig(("C0",), ((-1,),), (0,))

    @pytest.mark.parametrize("self_int, k_degree, genus", [
        (-1, -1, 0),  # an exceptional curve
        (-3, 1, 0),  # a (-3)-curve of a chain
        (5, 15, 11),  # an incidence divisor
    ], ids=["exceptional-curve", "minus-three-chain-curve", "incidence-divisor"])
    def test_adjunction_genus_on_construction(self, self_int, k_degree, genus):
        assert simple_config([[self_int]], [k_degree]).arithmetic_genus("C0") == genus

    def test_negative_genus_rejected(self):
        with pytest.raises(NonIntegralGenus, match="^C0: genus -1 is not a nonnegative integer$"):
            simple_config([[-4]], [0])

    def test_make_and_replace_pass_the_check(self):
        # the NamedTuple machinery would build both with tuple.__new__, past the check
        with pytest.raises(NonIntegralGenus, match="^C: genus -1 is not a nonnegative integer$"):
            CurveConfig(("C",), ((-2,),), (0,))._replace(matrix=((-4,),))
        with pytest.raises(NonIntegralGenus, match="^C: genus 1/2 is not a nonnegative integer$"):
            CurveConfig._make([("C",), ((-1,),), (0,)])
        assert CurveConfig._make([("C",), ((-1,),), (-1,)]) == CurveConfig(("C",), ((-1,),), (-1,))

    def test_check_survives_python_optimize(self):
        # python -O strips assert statements; the adjunction check is a raise
        code = ("from fanoquotients.blowdown import CurveConfig, NonIntegralGenus\n"
                "try:\n    CurveConfig(('C',), ((-4,),), (0,))\n"
                "except NonIntegralGenus as error:\n    print(error)\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "C: genus -1 is not a nonnegative integer\n", "")


class TestContract:
    def test_isolated_minus_one(self):
        config = simple_config(
            [[-1, 0], [0, -2]], [-1, 0])
        after = contract(config, "C0")
        assert after.names == ("C1",)
        assert after.self_int("C1") == -2
        assert after.k_degree("C1") == 0

    def test_transform_rules(self):
        config = simple_config(
            [[-1, 1, 2], [1, -2, 0], [2, 0, -2]], [-1, 0, 0])
        after = contract(config, "C0")
        assert after.self_int("C1") == -1
        assert after.self_int("C2") == 2
        assert after.pair("C1", "C2") == 0 + 1 * 2
        assert after.k_degree("C1") == -1
        assert after.k_degree("C2") == -2
        # C2 meets C0 twice, so its image gains a node
        assert after.arithmetic_genus("C2") == 1

    def test_rejects_non_minus_one(self):
        config = simple_config([[-2]], [0])
        with pytest.raises(NotMinusOneCurve, match="^C0: self-intersection -2, K-degree 0$"):
            contract(config, "C0")

    def test_klein_sequence_state(self):
        config = build_klein_config((5, 4, 4, 1))
        state = config
        for name in ("D13", "D25", "D14", "D23", "D45"):
            state = contract(state, name)
        assert state.self_int("A13") == -1
        assert state.k_degree("A13") == -1
        assert state.self_int("A45") == -1
        assert state.pair("A13", "A45") == 1
        after = contract(state, "A13")
        assert after.self_int("A45") == 0
        assert after.arithmetic_genus("A45") == 0

    def test_xv_sequence_state(self):
        state = build_xv_config()
        for name in ("A", "B"):
            state = contract(state, name)
        # the centre of the configuration becomes a (-1)-curve
        assert state.self_int("Tm") == -1
        assert state.k_degree("Tm") == -1


class TestInvariants:
    def test_adjunction_preserved_along_xv_path(self):
        state = build_xv_config()
        assert all(state.arithmetic_genus(curve) == 0 for curve in state.names)
        for name in ("A", "B", "Tm", "H"):
            state = contract(state, name)
            for curve in state.names:
                # every multiplicity on this path is <= 1, so no curve gains a node
                assert state.arithmetic_genus(curve) == 0

    @pytest.mark.parametrize("case, label", [("klein-option-1", "XI"), ("klein-option-2", "XI"), ("xv", "XV")])
    def test_every_certificate_state_keeps_adjunction(self, case, label):
        cert = certify_rationality(catalog.find_case(label))[case]
        assert len(cert.states) == len(cert.contractions) + 1
        for state in cert.states:
            assert all(state.arithmetic_genus(curve) >= 0 for curve in state.names)
        for state, curve in zip(cert.states, cert.contractions):
            assert state.arithmetic_genus(curve) == 0
        assert cert.final_config.arithmetic_genus(cert.final_curve) == 0

    @pytest.mark.parametrize("case, label", [("klein-option-1", "XI"), ("klein-option-2", "XI"), ("xv", "XV")])
    def test_every_certificate_state_obeys_the_hodge_index(self, case, label):
        # the curves span a sublattice of H^2 of the resolution, whose form has one positive
        # eigenvalue; each contraction lowers b2 = h^{1,1} + 2 p_g by one
        scenario = catalog.find_case(label)
        b2 = scenario.report.h11 + 2 * scenario.report.p_g
        assert b2 == {"XI": 15, "XV": 14}[label]
        inertias = [inertia(QMatrix(state.matrix)) for state in certify_rationality(scenario)[case].states]
        for k, (positive, negative, _) in enumerate(inertias):
            assert positive <= 1
            assert positive + negative <= b2 - k
        if label == "XI":
            assert inertias == [(1, negative, 4) for negative in range(10, 3, -1)]
        else:
            assert inertias == [(0, negative, 1) for negative in range(4, -1, -1)]

    def test_hodge_index_fails_on_a_flipped_entry(self):
        state = certify_rationality(catalog.find_case("XI"))["klein-option-1"].states[0]
        matrix = [list(row) for row in state.matrix]
        i, j = state.index("D13"), state.index("D25")
        assert matrix[i][j] == 0
        matrix[i][j] = matrix[j][i] = 1
        assert inertia(QMatrix(matrix)) == (2, 11, 2)

    def test_disjoint_contractions_commute(self):
        config = build_klein_config((4, 1, 5, 4))
        ab = contract(contract(config, "D13"), "D25")
        ba = contract(contract(config, "D25"), "D13")
        assert set(ab.names) == set(ba.names)
        for a in ab.names:
            for b in ab.names:
                assert ab.pair(a, b) == ba.pair(a, b)
            assert ab.k_degree(a) == ba.k_degree(a)

    def test_self_intersections_never_decrease(self):
        state = build_klein_config((5, 4, 4, 1))
        for name in ("D13", "D25", "D14", "D23", "D45", "A13"):
            before = {c: state.self_int(c) for c in state.names}
            state = contract(state, name)
            for c in state.names:
                assert state.self_int(c) >= before[c]


class TestFindCertificate:
    def test_single_minus_two_curve(self):
        config = simple_config([[-2]], [0])
        assert find_rationality_certificate(config) is None

    def test_certificate_properties(self):
        cert = find_rationality_certificate(build_xv_config())
        assert cert is not None
        assert len(cert.contractions) == 4
        assert cert.final_self_intersection >= 0
        final = cert.final_config
        assert final.arithmetic_genus(cert.final_curve) == 0

    def test_json_round_trip(self):
        import json

        cert = find_rationality_certificate(build_xv_config())
        payload = json.loads(json.dumps(cert.to_json_dict()))
        assert payload["contractions"] == list(cert.contractions)
        assert payload["final_curve"] == cert.final_curve
        assert payload["final_self_intersection"] == str(cert.final_self_intersection)
