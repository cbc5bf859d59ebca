from fractions import Fraction as F

import pytest

from exact_linalg import chain_bilinear, chain_solve, strict_transform_coeffs
from fanoquotients import rationality_cases
from fanoquotients.hj_resolution import CyclicSing, ExceptionalChain
from fanoquotients.mumford import ResolutionModel, UnknownCurve


def xv_style_inputs(chain_order=("m", "n", "p")):
    """The arguments of ``build`` for two nodal curve images on a surface with three A_{3,1} points."""
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
    return chains, pairing, k_degree, incidence


def xv_style_model(chain_order=("m", "n", "p")):
    return ResolutionModel.build(*xv_style_inputs(chain_order))


def on_z(model, x, y):
    """x.y on the resolution: the table holds the pairs that meet."""
    return model.pairing.get((x, y), 0)


def test_build_is_a_classmethod_of_the_class_body():
    # benchmark/tracer.py wraps it through ResolutionModel.__dict__
    assert isinstance(ResolutionModel.__dict__["build"], classmethod)


def test_build_returns_a_slotted_record_of_its_two_tables():
    model = xv_style_model()
    assert not hasattr(model, "__dict__")
    # the model is data: the two tables, and no query method beside the constructor
    assert ResolutionModel._fields == ("pairing", "k_degree")
    assert {name for name in vars(ResolutionModel) if not name.startswith("_")} == {"build"}


def test_a_broken_pullback_relation_is_refused(monkeypatch):
    # a solve off by one breaks g*C . C_i = 0; the check is a raise, so python -O keeps it
    original = ExceptionalChain.solve

    def solve_off_by_one(chain, rhs):
        s, n = original(chain, rhs)
        return [x + 1 for x in s], n

    monkeypatch.setattr(ExceptionalChain, "solve", solve_off_by_one)
    chains = {"m": ExceptionalChain.from_selfints((3,))}
    with pytest.raises(ValueError, match="^pullback relation violated at m$"):
        ResolutionModel.build(chains, {("C", "C"): F(-1)}, {"C": F(-1)}, {"C": {"m": (1,)}})


class TestStrictTransformCoeffs:
    # the model keeps no strict transforms: each coefficient a, solved by exact_linalg, is pinned, and so
    # is the table entry it sets, K_Z.Cbar = K_Y.C + sum (2 - b_i) a_i or Cbar1.Cbar2 = C1.C2 - a1.m2
    def test_curve_missing_all_points(self):
        chains, _, _, incidence = xv_style_inputs()
        model = xv_style_model()
        assert strict_transform_coeffs(chains, incidence, "Z") == {}
        assert (model.pairing[("Z", "Z")], model.k_degree["Z"]) == (-2, 0)  # the downstairs values

    def test_explicit_zero_multiplicities_give_zero_coefficients(self):
        chains, incidence = {"m": ExceptionalChain.from_selfints((3,))}, {"C": {"m": (0,)}}
        model = ResolutionModel.build(chains, {("C", "C"): F(-1)}, {"C": F(-1)}, incidence)
        assert strict_transform_coeffs(chains, incidence, "C") == {"m": (F(0),)}
        assert model.pairing[("C", "C")] == -1
        assert model.k_degree["C"] == -1

    def test_nodal_curve_coefficients(self):
        chains, _, _, incidence = xv_style_inputs()
        model = xv_style_model()
        for curve, node in (("H", "n"), ("L", "p")):
            coeffs = strict_transform_coeffs(chains, incidence, curve)
            assert coeffs == {"m": (F(1, 3),), node: (F(2, 3),)}
            # the curve meets m once and its node twice, so C.C = -1/3 - a_m - 2 a_node and
            # K_Z.C = 1 - a_m - a_node hold a_m = 1/3 and a_node = 2/3 apart
            assert on_z(model, curve, curve) == F(-1, 3) - F(1, 3) - 2 * F(2, 3)
            assert model.k_degree[curve] == 1 - F(1, 3) - F(2, 3)

    def test_double_point_on_long_chain(self):
        chains = {"b": ExceptionalChain.from_selfints((4, 4)), "f": ExceptionalChain.from_selfints((3,)),
                  "m": ExceptionalChain.from_selfints((3,))}
        # the probes P, Q, R are disjoint from B downstairs and each meet one component once,
        # so B.probe = -a_i reads one coefficient of B back from the model
        incidence = {"B": {"b": (1, 1), "f": (1,), "m": (1,)}, "P": {"b": (1, 0)}, "Q": {"b": (0, 1)}, "R": {"f": (1,)}}
        curves = tuple(incidence)
        pairing = {(c1, c2): F(1, 3) if c1 == c2 == "B" else F(0) for c1 in curves for c2 in curves}
        model = ResolutionModel.build(chains, pairing, dict.fromkeys(curves, F(1)), incidence)
        coeffs = strict_transform_coeffs(chains, incidence, "B")
        assert coeffs["b"] == (F(1, 3), F(1, 3))
        assert coeffs["f"] == (F(1, 3),)
        assert [model.pairing[("B", probe)] for probe in ("P", "Q", "R")] == [F(-1, 3)] * 3
        assert model.k_degree["B"] == 1 + (2 - 4) * (F(1, 3) + F(1, 3)) + (2 - 3) * (F(1, 3) + F(1, 3))

    def test_unknown_curve(self):
        # a pair of curves with no downstairs value fails when the model is built
        chains, pairing, k_degree, incidence = xv_style_inputs()
        del pairing[("H", "Z")]
        with pytest.raises(UnknownCurve, match="no downstairs pairing recorded for"):
            ResolutionModel.build(chains, pairing, k_degree, incidence)


class TestPairOnResolution:
    def test_nodal_images_become_minus_two_curves(self):
        model = xv_style_model()
        assert on_z(model, "H", "H") == -2
        assert on_z(model, "L", "L") == -2
        assert on_z(model, "H", "L") == 0

    def test_disjoint_from_singularities_unchanged(self):
        model = xv_style_model()
        assert on_z(model, "Z", "Z") == -2
        assert on_z(model, "H", "Z") == 0

    def test_symmetry_and_chain_order_independence(self):
        a = xv_style_model(("m", "n", "p"))
        b = xv_style_model(("p", "n", "m"))
        for c1 in ("H", "L", "Z"):
            for c2 in ("H", "L", "Z"):
                assert on_z(a, c1, c2) == on_z(a, c2, c1)
                assert on_z(a, c1, c2) == on_z(b, c1, c2)

    def test_kz_degree(self):
        model = xv_style_model()
        assert model.k_degree["H"] == 0
        assert model.k_degree["Z"] == 0


def builds_made_by(monkeypatch, build):
    """(arguments, model) of every ResolutionModel that ``build()`` constructs."""
    built = []
    original = ResolutionModel.__dict__["build"].__func__
    monkeypatch.setattr(ResolutionModel, "build",
                        classmethod(lambda cls, *args: built.append((args, original(cls, *args))) or built[-1][1]))
    build()
    return built


CERTIFICATE_BUILDS = pytest.mark.parametrize("build", [
    *[lambda option=option: rationality_cases.build_klein_config(option) for option in [(4, 1, 5, 4), (5, 4, 4, 1)]],
    rationality_cases.build_xv_config,
], ids=["klein-option-1", "klein-option-2", "xv"])


@CERTIFICATE_BUILDS
def test_pairings_match_the_full_bilinear_expansion(monkeypatch, build):
    # second route: expand (g*C1 - A1).(g*C2 - A2) = C1.C2 + a1^T M a2 and
    # K_Z.Cbar = K_Y.C + d^T M a on each chain matrix, against C1.C2 - a1.m2
    # and K_Y.C + sum (2 - b) a in the package, with each a = chain_solve(b, -m)
    # from the build's own arguments
    for (chains, pairing, k_y, incidence), model in builds_made_by(monkeypatch, build) + [
            (xv_style_inputs(), xv_style_model())]:
        for c1 in k_y:  # the curves are the keys of K_Y.C
            a1 = strict_transform_coeffs(chains, incidence, c1)
            k_expected = k_y[c1] + sum(
                chain_bilinear(chains[p].selfints, chains[p].discrepancies, a) for p, a in a1.items())
            assert model.k_degree[c1] == k_expected
            for c2 in k_y:
                a2 = strict_transform_coeffs(chains, incidence, c2)
                expected = pairing.get((c1, c2), pairing.get((c2, c1))) + sum(
                    chain_bilinear(chains[p].selfints, a1[p], a2[p]) for p in set(a1) & set(a2))
                assert on_z(model, c1, c2) == expected


@CERTIFICATE_BUILDS
def test_every_table_entry_matches_the_chain_algebra(monkeypatch, build):
    # every key pair, components included, against exact_linalg: with a = chain_solve(b, -m),
    # Cbar.C_i = -(M a)_i must give back m_i, C_i.C_j is e_i^T M e_j on one chain and 0 across
    # two, K_Z.C_i = -2 - C_i^2 on a smooth rational curve, and Cbar1.Cbar2 = C1.C2 + a1^T M a2
    (built,) = builds_made_by(monkeypatch, build)
    (chains, pairing, k_y, incidence), model = built
    curves = tuple(k_y)
    unit = {p: [tuple(int(i == j) for j in range(len(c.selfints))) for i in range(len(c.selfints))]
            for p, c in chains.items()}
    coeffs = {c: {p: chain_solve(chains[p].selfints, [-m for m in mults]) for p, mults in incidence[c].items()}
              for c in curves}

    def second_route(x, y):
        if isinstance(x, str) and isinstance(y, str):
            return pairing.get((x, y), pairing.get((y, x))) + sum(
                chain_bilinear(chains[p].selfints, coeffs[x][p], coeffs[y][p]) for p in set(coeffs[x]) & set(coeffs[y]))
        if isinstance(x, str):
            x, y = y, x
        if isinstance(y, str):  # x is a component, y a curve
            point, i = x
            m = -chain_bilinear(chains[point].selfints, unit[point][i], coeffs[y].get(point, (0,) * len(unit[point])))
            assert m == (incidence[y][point][i] if point in incidence[y] else 0)
            return m
        if x[0] != y[0]:
            return 0
        return chain_bilinear(chains[x[0]].selfints, unit[x[0]][x[1]], unit[y[0]][y[1]])

    keys = [*curves, *((p, i) for p in chains for i in range(len(chains[p].selfints)))]
    assert set(model.k_degree) == set(keys)
    assert all(model.pairing.values())  # a pair that does not meet is left out
    assert {k for pair in model.pairing for k in pair} <= set(keys)
    for x in keys:
        if not isinstance(x, str):
            assert model.k_degree[x] == -2 - second_route(x, x)
        for y in keys:
            assert on_z(model, x, y) == second_route(x, y), (x, y)


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
