import pytest

from fanoquotients.blowdown import (
    CurveConfig,
    NotMinusOneCurve,
    contract,
    find_rationality_certificate,
)
from fanoquotients.rationality_cases import build_klein_config, build_xv_config


def simple_config(matrix, k, genera=None, names=None):
    n = len(matrix)
    return CurveConfig(tuple(names or (f"C{i}" for i in range(n))), tuple(map(tuple, matrix)), tuple(k),
                       tuple(genera or [0] * n))


class TestBuild:
    def test_odd_adjunction_parity_has_no_genus(self):
        # C^2 + K.C is even for every curve on a smooth surface
        with pytest.raises(ValueError, match="C0: C\\^2 \\+ K.C = -1 is odd"):
            simple_config([[0]], [-1]).arithmetic_genus("C0")
        with pytest.raises(ValueError, match="C0: C\\^2 \\+ K.C = -1 is odd"):
            CurveConfig(("C0",), ((-1,),), (0,), (0,)).arithmetic_genus("C0")


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
            [[-1, 1, 2], [1, -2, 0], [2, 0, -2]], [-1, 0, 0],
            genera=[0, 0, 1])
        after = contract(config, "C0")
        assert after.self_int("C1") == -1
        assert after.self_int("C2") == 2
        assert after.pair("C1", "C2") == 0 + 1 * 2
        assert after.k_degree("C1") == -1
        assert after.k_degree("C2") == -2
        assert after.genus("C2") == 1

    def test_rejects_non_minus_one(self):
        config = simple_config([[-2]], [0])
        with pytest.raises(NotMinusOneCurve):
            contract(config, "C0")
        config = simple_config([[-1]], [-1], genera=[1])
        with pytest.raises(NotMinusOneCurve):
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
        assert after.is_smooth("A45")

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
        for name in ("A", "B", "Tm", "H"):
            for curve in state.names:
                if state.genus(curve) == 0:
                    assert state.arithmetic_genus(curve) >= 0
            state = contract(state, name)
            for curve in state.names:
                # every multiplicity on this path is <= 1, so adjunction is
                # preserved exactly
                assert state.arithmetic_genus(curve) == state.genus(curve)

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
        assert final.genus(cert.final_curve) == 0
        assert final.is_smooth(cert.final_curve)

    def test_json_round_trip(self):
        import json

        cert = find_rationality_certificate(build_xv_config())
        payload = json.loads(json.dumps(cert.to_json_dict()))
        assert payload["contractions"] == list(cert.contractions)
        assert payload["final_curve"] == cert.final_curve
        assert payload["final_self_intersection"] == str(cert.final_self_intersection)
