from fractions import Fraction as F

import pytest

from exact_linalg import chain_bilinear, strict_transform_coeffs
from fanoquotients import rationality_cases
from fanoquotients.hj_resolution import CyclicSing, ExceptionalChain
from fanoquotients.mumford import ResolutionModel, UnknownCurve


def xv_style_model(chain_order=("m", "n", "p")):
    """Two nodal curve images on a surface with three A_{3,1} points."""
    chains = {name: ExceptionalChain.from_selfints((3,)) for name in chain_order}
    pairing = {
        ("H", "H"): F(-1, 3), ("L", "L"): F(-1, 3), ("H", "L"): F(1, 3),
        ("H", "Z"): F(0), ("L", "Z"): F(0), ("Z", "Z"): F(-2),
    }
    k_degree = {"H": F(1), "L": F(1), "Z": F(0)}
    incidence = {
        "H": {"m": (1,), "n": (2,)},
        "L": {"m": (1,), "p": (2,)},
        "Z": {},
    }
    return ResolutionModel.build(chains, ("H", "L", "Z"), pairing, k_degree, incidence)


def test_build_is_a_classmethod_of_the_class_body():
    # benchmark/tracer.py wraps it through ResolutionModel.__dict__
    assert isinstance(ResolutionModel.__dict__["build"], classmethod)


def test_build_solves_every_strict_transform_into_a_slotted_record():
    model = xv_style_model()
    assert model.strict == {"H": {"m": ((1,), 3), "n": ((2,), 3)}, "L": {"m": ((1,), 3), "p": ((2,), 3)}, "Z": {}}
    assert not hasattr(model, "__dict__")
    for curve in model.curves:
        assert model.strict_transform_numerators(curve) is model.strict[curve]


def test_a_broken_pullback_relation_is_refused(monkeypatch):
    # a solve off by one breaks g*C . C_i = 0; the check is a raise, so python -O keeps it
    original = ExceptionalChain.solve

    def solve_off_by_one(chain, rhs):
        s, n = original(chain, rhs)
        return [x + 1 for x in s], n

    monkeypatch.setattr(ExceptionalChain, "solve", solve_off_by_one)
    chains = {"m": ExceptionalChain.from_selfints((3,))}
    with pytest.raises(ValueError, match="^pullback relation violated at m$"):
        ResolutionModel.build(chains, ("C",), {("C", "C"): F(-1)}, {"C": F(-1)}, {"C": {"m": (1,)}})


class TestStrictTransformCoeffs:
    def test_curve_missing_all_points(self):
        model = xv_style_model()
        assert strict_transform_coeffs(model, "Z") == {}

    def test_explicit_zero_multiplicities_give_zero_coefficients(self):
        chains = {"m": ExceptionalChain.from_selfints((3,))}
        model = ResolutionModel.build(
            chains, ("C",), {("C", "C"): F(-1)}, {"C": F(-1)}, {"C": {"m": (0,)}})
        assert strict_transform_coeffs(model, "C") == {"m": (F(0),)}
        assert model.pair_on_resolution("C", "C") == -1

    def test_nodal_curve_coefficients(self):
        model = xv_style_model()
        coeffs = strict_transform_coeffs(model, "H")
        assert coeffs["m"] == (F(1, 3),)
        assert coeffs["n"] == (F(2, 3),)

    def test_double_point_on_long_chain(self):
        chains = {"b": ExceptionalChain.from_selfints((4, 4)), "f": ExceptionalChain.from_selfints((3,)),
                  "m": ExceptionalChain.from_selfints((3,))}
        model = ResolutionModel.build(
            chains, ("B",), {("B", "B"): F(1, 3)}, {"B": F(1)},
            {"B": {"b": (1, 1), "f": (1,), "m": (1,)}})
        coeffs = strict_transform_coeffs(model, "B")
        assert coeffs["b"] == (F(1, 3), F(1, 3))
        assert coeffs["f"] == (F(1, 3),)

    def test_unknown_curve(self):
        with pytest.raises(UnknownCurve):
            strict_transform_coeffs(xv_style_model(), "W")


class TestPairOnResolution:
    def test_nodal_images_become_minus_two_curves(self):
        model = xv_style_model()
        assert model.pair_on_resolution("H", "H") == -2
        assert model.pair_on_resolution("L", "L") == -2
        assert model.pair_on_resolution("H", "L") == 0

    def test_disjoint_from_singularities_unchanged(self):
        model = xv_style_model()
        assert model.pair_on_resolution("Z", "Z") == -2
        assert model.pair_on_resolution("H", "Z") == 0

    def test_symmetry_and_chain_order_independence(self):
        a = xv_style_model(("m", "n", "p"))
        b = xv_style_model(("p", "n", "m"))
        for c1 in ("H", "L", "Z"):
            for c2 in ("H", "L", "Z"):
                assert a.pair_on_resolution(c1, c2) == a.pair_on_resolution(c2, c1)
                assert a.pair_on_resolution(c1, c2) == b.pair_on_resolution(c1, c2)

    def test_kz_degree(self):
        model = xv_style_model()
        assert model.kz_degree("H") == 0
        assert model.kz_degree("Z") == 0


def models_built_by(monkeypatch, build):
    """Every ResolutionModel that ``build()`` constructs."""
    models = []
    original = ResolutionModel.__dict__["build"].__func__
    monkeypatch.setattr(ResolutionModel, "build",
                        classmethod(lambda cls, *args: models.append(original(cls, *args)) or models[-1]))
    build()
    return models


@pytest.mark.parametrize("build", [
    *[lambda option=option: rationality_cases.build_klein_config(option) for option in [(4, 1, 5, 4), (5, 4, 4, 1)]],
    rationality_cases.build_xv_config,
], ids=["klein-option-1", "klein-option-2", "xv"])
def test_pairings_match_the_full_bilinear_expansion(monkeypatch, build):
    # second route: expand (g*C1 - A1).(g*C2 - A2) = C1.C2 + a1^T M a2 and
    # K_Z.Cbar = K_Y.C + d^T M a on each chain matrix, against C1.C2 - a1.m2
    # and K_Y.C + sum (2 - b) a in the package
    models = models_built_by(monkeypatch, build) + [xv_style_model()]
    for model in models:
        for c1 in model.curves:
            a1 = strict_transform_coeffs(model, c1)
            k_expected = model.k_degree[c1] + sum(
                chain_bilinear(model.chains[p].selfints, model.chains[p].discrepancies, a) for p, a in a1.items())
            assert model.kz_degree(c1) == k_expected
            for c2 in model.curves:
                a2 = strict_transform_coeffs(model, c2)
                expected = model.downstairs(c1, c2) + sum(
                    chain_bilinear(model.chains[p].selfints, a1[p], a2[p]) for p in set(a1) & set(a2))
                assert model.pair_on_resolution(c1, c2) == expected


class TestKzSquared:
    # K_Z^2 = K_Y^2 + the per-singularity corrections, summed as full_report does
    def test_klein_books(self):
        sings = [CyclicSing(11, 3)] * 5
        assert F(45, 11) + sum(s.chain().k2_correction() for s in sings) == -5

    def test_order_fifteen_books(self):
        sings = [CyclicSing(3, 1)] * 5 + [CyclicSing(15, 4)] * 2
        assert F(3) + sum(s.chain().k2_correction() for s in sings) == -4

    def test_empty_is_identity(self):
        assert F(45, 11) + sum(s.chain().k2_correction() for s in []) == F(45, 11)

    def test_du_val_only_is_identity(self):
        assert F(18) + sum(s.chain().k2_correction() for s in [CyclicSing(2, 1)] * 27) == 18
