"""The two rationality certificates: the order-11 (Klein cubic) quotient and
the order-15 quotient.

For the order-11 case the strict-transform coefficients of the five incidence
curves are pinned down by a two-stage Diophantine enumeration (integrality
and nonnegativity of all intersection numbers against the exceptional curves,
plus a budget equation), after which the five curves are disjoint
(-1)-curves; contracting them and one more curve reaches a genus-0 curve of
square zero.  For the order-15 case the configuration of the curves
Abar, Bbar, T_m, Hbar, Lbar is derived from the lattice of the ten elliptic
curves on the surface, and four contractions finish the proof.  Both proofs
need a regular surface (q = 0), which is what makes the final curve a
rationality certificate; ``certify_rationality`` reads q from the scenario.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .blowdown import CurveConfig, RationalityCertificate, find_rationality_certificate
from .hj_resolution import ExceptionalChain, scaled_chain_solve
from .mumford import ResolutionModel, adjunction_genus
from .quotient_engine import QuotientScenario


class NoCertificate(ArithmeticError):
    """No rationality certificate: the surface is irregular, no case is annotated, or
    no contraction sequence reaches a genus-0 curve of nonnegative square."""


class NoSolution(NoCertificate):
    """The Diophantine constraints eliminated every candidate."""


class IntegralityViolation(NoCertificate):
    """An entry of a configuration on the smooth resolution came out fractional, or a
    distinct-curve intersection number came out negative."""


class MatrixMismatch(NoCertificate):
    """A derived intersection matrix differs from its expected value."""


# ---------------------------------------------------------------------------
# the order-11 Diophantine stages
#
# One A_{11,3} point resolves into A_ij, B_ij with self-intersections -3, -4
# (_KLEIN_CHAIN, chain matrix M).  A coefficient pair (a, b)/n on it, n = det M,
# and its intersections with A_ij, B_ij are kept as integer numerators over n.

_KLEIN_CHAIN = (3, 4)
_KLEIN_DET = scaled_chain_solve(_KLEIN_CHAIN, (0, 0))[1]  # n = det M
# rows of the linear map u -> n x, x solving M x = -u, from its values on the unit vectors
_LATTICE_ROWS = tuple(zip(*(scaled_chain_solve(_KLEIN_CHAIN, e)[0] for e in ((-1, 0), (0, -1)))))


def _lattice_point(u1: int, u2: int) -> tuple[int, int]:
    """n x for the solution x of M x = -(u1, u2): the integrality lattice."""
    return tuple(u1 * c1 + u2 * c2 for c1, c2 in _LATTICE_ROWS)


def _incidence_of(a: int, b: int) -> tuple[int, int]:
    """n (Dbar.A, Dbar.B) for the coefficient pair (a, b)/n: the integers -M (a, b)."""
    b1, b2 = _KLEIN_CHAIN
    return (b1 * a - b, b2 * b - a)


def _whole(numerators: Iterable[int]) -> Optional[tuple[int, ...]]:
    """The numerators divided by n if all quotients are nonnegative integers, else None."""
    quotients = [divmod(x, _KLEIN_DET) for x in numerators]
    return None if any(r or q < 0 for q, r in quotients) else tuple(q for q, _ in quotients)


def klein_stage1(budget: int = 5) -> list[tuple[int, int, int, int]]:
    """All (a14, b14, u1, u2) with both coefficient pairs in the integrality
    lattice, positive, and a14*u1 + b14*u2 equal to the budget.

    Since a14, b14 >= 1, the budget equation gives u1, u2 <= budget.  One of
    u1, u2 is nonzero (a23, b23 >= 1), so a14 or b14 is at most the budget;
    with (a14, b14) = (4 v1 + v2, v1 + 3 v2) that gives v1, v2 <= budget and
    a14, b14 <= 4 budget.  So the loops below are complete.
    """
    box = range(budget + 1)
    lattice_pairs = [_lattice_point(v1, v2) for v1 in box for v2 in box]
    lattice_pairs = [(a, b) for a, b in lattice_pairs if a >= 1 and b >= 1]
    solutions = []
    for u1 in box:
        for u2 in box:
            a23, b23 = _lattice_point(u1, u2)
            if a23 < 1 or b23 < 1:
                continue
            for a14, b14 in lattice_pairs:
                if a14 * u1 + b14 * u2 == budget:
                    solutions.append((a14, b14, u1, u2))
    return sorted(solutions)


class KleinStage2(NamedTuple):
    first_pair: tuple[int, int]                      # (a13, b13)
    survivors: tuple[tuple[int, int, int, int], ...]  # (a14, b14, a23, b23)
    w_candidates: tuple[tuple[int, int], ...]
    candidates_per_w: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    kept_per_w: dict[tuple[int, int], tuple[tuple[int, int], ...]]  # candidates passing integrality


def klein_stage2(stage1: Sequence[tuple[int, int, int, int]], budget: int = 5) -> KleinStage2:
    """Filter stage 1 through the cross-curve integrality constraint.

    Each stage-1 quadruple determines (a23, b23); the sum vector
    (a14 + a23, b14 + b23) must again sit in the integrality lattice, with
    quotient (w1, w2), and the remaining pair (a13, b13) obeys the same
    budget equation against (w1, w2) plus integrality of Dbar13.A13.
    """
    w_of = {}  # option (a14, b14, a23, b23) -> w of its sum vector
    for a14, b14, u1, u2 in stage1:
        a23, b23 = _lattice_point(u1, u2)
        sa, sb = a14 + a23, b14 + b23
        w = _whole(_incidence_of(sa, sb))
        if w is None:
            raise NoSolution(f"sum vector ({sa},{sb}) leaves the integrality lattice")
        w_of[(a14, b14, a23, b23)] = w
    w_list = tuple(dict.fromkeys(w_of.values()))
    box = list(itertools.product(range(budget + 1), repeat=2))
    candidates_per_w = {(w1, w2): tuple((a13, b13) for a13, b13 in box if a13 * w1 + b13 * w2 == budget)
                        for w1, w2 in w_list}
    kept_per_w = {w: tuple((a13, b13) for a13, b13 in cands
                           if a13 >= 1 and b13 >= 1 and _whole(_incidence_of(a13, b13)[:1]) is not None)
                  for w, cands in candidates_per_w.items()}
    surviving = [(pair, w) for w in w_list for pair in kept_per_w[w]]
    if not surviving:
        raise NoSolution("every (a13, b13) candidate fails integrality")
    if len({pair for pair, _ in surviving}) != 1:
        raise NoSolution(f"ambiguous first pair: {[pair for pair, _ in surviving]}")
    first, w_win = surviving[0]
    return KleinStage2(first_pair=first, survivors=tuple(option for option, w in w_of.items() if w == w_win),
                       w_candidates=w_list, candidates_per_w=candidates_per_w, kept_per_w=kept_per_w)


@functools.cache
def _klein_stages() -> tuple[tuple[tuple[int, int, int, int], ...], KleinStage2]:
    """Both stages, run once per process for the certificates and the transcript."""
    stage1 = tuple(klein_stage1())
    return stage1, klein_stage2(stage1)


# ---------------------------------------------------------------------------
# the order-11 configuration
#
# The five fixed points sit in one orbit of the residual order-5 symmetry;
# in orbit order P0..P4 they are:

_KLEIN_POINTS = ("s13", "s25", "s14", "s23", "s45")
_KLEIN_SUFFIX = ("13", "25", "14", "23", "45")

# every incidence divisor C on the Fano surface has C^2 = 5 and K_S.C = 15 (K_S = 3C)
_INCIDENCE_SQ, _INCIDENCE_K = 5, 15
# expected on the resolution: the five D curves are disjoint (-1)-curves with K.D = -1
_KLEIN_EXPECTED = (tuple(tuple(-(i == j) for j in range(5)) for i in range(5)), (-1,) * 5)


def build_klein_config(option: tuple[int, int, int, int]) -> CurveConfig:
    """Curve configuration of the five contracted curves plus the ten exceptional
    curves over the A_{11,3} points, for one option and the first pair of stage 2."""
    stage2 = _klein_stages()[1]
    if option not in stage2.survivors:
        raise ValueError(f"option {option} is not one of the surviving options {stage2.survivors}")
    a14, b14, a23, b23 = option
    chains = {p: ExceptionalChain.from_selfints(_KLEIN_CHAIN) for p in _KLEIN_POINTS}
    curve_names = tuple(f"D{s}" for s in _KLEIN_SUFFIX)

    # coefficient pattern under the order-5 index symmetry: the curve at P_k
    # carries the first pair at P_k, (a23, b23) at P_{k+3}, (a14, b14) at P_{k+2}
    coeff_at: dict[str, dict[str, tuple[int, int]]] = {}
    for k, name in enumerate(curve_names):
        coeff_at[name] = {
            _KLEIN_POINTS[k]: stage2.first_pair,
            _KLEIN_POINTS[(k + 3) % 5]: (a23, b23),
            _KLEIN_POINTS[(k + 2) % 5]: (a14, b14),
        }

    incidence = {}
    for name, per_point in coeff_at.items():
        inc = {}
        for point, (a, b) in per_point.items():
            inc[point] = _whole(_incidence_of(a, b))
            if inc[point] is None:
                ia, ib = (Fraction(x, _KLEIN_DET) for x in _incidence_of(a, b))
                raise IntegralityViolation(
                    f"{name} at {point}: intersections ({ia}, {ib}) must be nonnegative integers")
        incidence[name] = inc

    # downstairs: all the incidence curves are numerically equivalent upstairs,
    # and the quotient is etale in codimension one, so every pairing descends
    # divided by the group order
    order = _PROOFS["klein"][0]
    pairing = {(c1, c2): Fraction(_INCIDENCE_SQ, order)
               for c1 in curve_names for c2 in curve_names}
    k_degree = {c: Fraction(_INCIDENCE_K, order) for c in curve_names}
    model = ResolutionModel.build(chains, curve_names, pairing, k_degree, incidence)

    for name in curve_names:
        solved = model.strict_transform_numerators(name)
        expected = {point: (pair, _KLEIN_DET) for point, pair in coeff_at[name].items()}
        if solved != expected:
            raise MatrixMismatch(f"{name}: solved {solved}, expected {expected}")

    exceptional = [(point, i, f"{kind}{suffix}") for point, suffix in zip(_KLEIN_POINTS, _KLEIN_SUFFIX)
                   for i, kind in enumerate(("A", "B"))]
    return _config_from_model(model, [*curve_names, *exceptional], _KLEIN_EXPECTED)


# ---------------------------------------------------------------------------
# the order-15 configuration


class EllipticLattice:
    """The ten elliptic curves E_ij (1 <= i < j <= 5) and their pairing:
    E_ij^2 = -3, E_ij.E_st = 1 when the index sets are disjoint, 0 when they
    share one index."""

    @staticmethod
    def pair(ij: tuple[int, int], st: tuple[int, int]) -> int:
        overlap = len({*ij, *st})
        if overlap == 2:
            return -3
        return 1 if overlap == 4 else 0

    def divisor_pair(self, first: Iterable[tuple[int, int]], second: Iterable[tuple[int, int]]) -> int:
        return sum(self.pair(x, y) for x in first for y in second)


XV_CYCLE = ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
XV_PENTAGRAM = ((1, 3), (2, 4), (3, 5), (1, 4), (2, 5))

_XV_MATRIX = (
    (-1, 0, 1, 0, 0),
    (0, -1, 1, 0, 0),
    (1, 1, -3, 1, 1),
    (0, 0, 1, -2, 0),
    (0, 0, 1, 0, -2),
)
_XV_K_DEGREES = (-1, -1, 1, 0, 0)
_XV_CHAINS = {"a": (4, 4), "b": (4, 4), "g": (3,), "f": (3,), "m": (3,), "n": (3,), "p": (3,)}  # 2 A15,4 + 5 A3,1


def build_xv_config() -> CurveConfig:
    """Derive the 5x5 configuration (Abar, Bbar, T_m, Hbar, Lbar) of the
    order-15 quotient and check it against its expected intersection matrix."""
    lattice = EllipticLattice()
    e1_sq = lattice.divisor_pair(XV_CYCLE, XV_CYCLE)
    e1_e2 = lattice.divisor_pair(XV_CYCLE, XV_PENTAGRAM)
    if e1_sq != -5 or e1_e2 != 5:
        raise MatrixMismatch(f"elliptic orbit pairings: E1^2 = {e1_sq}, E1.E2 = {e1_e2}")
    order = _PROOFS["xv"][0]
    h_sq = Fraction(e1_sq, order)                  # -1/3
    h_l = Fraction(e1_e2, order)                   # 1/3
    incidence_sq = Fraction(_INCIDENCE_SQ, order)  # images of incidence divisors
    k_inc = Fraction(_INCIDENCE_K, order)
    k_ell = Fraction(3 * len(XV_CYCLE), order)     # K_S.E_orbit: K_S.E_ij = 3 on each curve
    inc_ell = Fraction(5, order)                   # C.E_orbit = 5 * 1

    chains = {point: ExceptionalChain.from_selfints(b) for point, b in _XV_CHAINS.items()}
    curves = ("A", "B", "H", "L")
    pairing = {
        ("A", "A"): incidence_sq, ("B", "B"): incidence_sq,
        ("H", "H"): h_sq, ("L", "L"): h_sq,
        ("A", "B"): incidence_sq, ("H", "L"): h_l,
        ("A", "H"): inc_ell, ("A", "L"): inc_ell,
        ("B", "H"): inc_ell, ("B", "L"): inc_ell,
    }
    k_degree = {"A": k_inc, "B": k_inc, "H": k_ell, "L": k_ell}
    incidence = {
        "A": {"a": (1, 1), "g": (1,), "m": (1,)},
        "B": {"b": (1, 1), "f": (1,), "m": (1,)},
        "H": {"m": (1,), "n": (2,)},
        "L": {"m": (1,), "p": (2,)},
    }
    model = ResolutionModel.build(chains, curves, pairing, k_degree, incidence)

    return _config_from_model(model, ["A", "B", ("m", 0, "Tm"), "H", "L"], (_XV_MATRIX, _XV_K_DEGREES))


# ---------------------------------------------------------------------------
# shared assembly and the certificates


def _config_from_model(model: ResolutionModel, entries: Sequence[str | tuple[str, int, str]],
                       expected: tuple[Sequence[Sequence[int]], Sequence[int]]) -> CurveConfig:
    """Assemble a blow-down configuration, one curve per entry and in their order: a
    curve name stands for its strict transform, a (point, component index, display
    name) triple for an exceptional component.  Every entry lives on the smooth
    resolution, so a fractional self-intersection, K-degree or pairing, or a negative
    pairing of distinct curves, raises ``IntegralityViolation``; the rest are stored
    as ints.  The proof's ``expected`` (matrix, K-degrees) block must then equal the
    leading entries; the first that differs raises ``MatrixMismatch``.  Adjunction
    gives each genus, and rejects an odd C^2 + K.C."""
    names = [e if isinstance(e, str) else e[2] for e in entries]

    def pair(x, y) -> Fraction | int:
        if isinstance(x, str) and isinstance(y, str):
            return model.pair_on_resolution(x, y)
        if isinstance(x, str):
            return model.pair_with_component(x, y[0], y[1])
        if isinstance(y, str):
            return model.pair_with_component(y, x[0], x[1])
        if x[0] != y[0]:
            return 0
        return model.chains[x[0]].pair(x[1], y[1])

    matrix = [[0] * len(entries) for _ in entries]
    k_degrees = [model.kz_degree(e) if isinstance(e, str) else model.chains[e[0]].selfints[e[1]] - 2
                 for e in entries]
    for i, name in enumerate(names):
        for j in range(i, len(names)):
            v = pair(entries[i], entries[j])
            if v.denominator != 1 or (v < 0 and j > i):
                raise IntegralityViolation(f"{name}.{names[j]} = {v}")
            matrix[i][j] = matrix[j][i] = int(v)
        if k_degrees[i].denominator != 1:
            raise IntegralityViolation(f"K.{name} = {k_degrees[i]}")
        k_degrees[i] = int(k_degrees[i])
    expected_matrix, expected_k = expected
    for i, (row, k) in enumerate(zip(expected_matrix, expected_k)):
        for j, e in enumerate(row):
            if matrix[i][j] != e:
                raise MatrixMismatch(f"{names[i]}.{names[j]} = {matrix[i][j]}, expected {e}")
        if k_degrees[i] != k:
            raise MatrixMismatch(f"K.{names[i]} = {k_degrees[i]}, expected {k}")
    return CurveConfig(tuple(names), tuple(map(tuple, matrix)), tuple(k_degrees),
                       tuple(adjunction_genus(matrix[i][i], k) for i, k in enumerate(k_degrees)))


# per proof: the group order |G| its pairings are divided by, the exceptional chains
# its configuration resolves, in their lesser orientation, and its contraction count
_PROOFS = {"klein": (11, Counter({_KLEIN_CHAIN: len(_KLEIN_POINTS)}), 6),
           "xv": (15, Counter(_XV_CHAINS.values()), 4)}


def certify_rationality(scenario: QuotientScenario) -> dict[str, RationalityCertificate]:
    """The blow-down certificates of the scenario's ``rationality_case``: 'klein-option-1'
    and 'klein-option-2' for "klein", 'xv' for "xv".  They prove rationality only on a regular
    surface with the singularities the proof resolves, and for the group order it divides by,
    so q, the scenario's chains and |G| are checked first.  Each certificate found must then
    keep the report's (K^2, c2) within the bounds of a rational surface and make as many
    contractions as the proof predicts.  Every failure raises ``NoCertificate``."""
    q = scenario.report.q
    if q != 0:
        raise NoCertificate(f"case {scenario.label}: irregularity {q} != 0, no rationality conclusion")
    case = scenario.annotations.get("rationality_case")
    if case not in _PROOFS:
        raise NoCertificate(f"case {scenario.label}: no rationality case annotated")
    order, chains, predicted = _PROOFS[case]
    found: Counter = Counter()  # multiset of chains up to reversal
    for sing, count in scenario.singularities:
        found[min(sing.chain().selfints, sing.chain().selfints[::-1])] += count
    if found != chains:
        raise NoCertificate(f"case {scenario.label}: the {case} proof resolves the chains "
                            f"{dict(chains)}, but the scenario's singularities give {dict(found)}")
    if scenario.group().order != order:
        raise NoCertificate(f"case {scenario.label}: the {case} proof divides by |G| = {order}, "
                            f"but the scenario's group has order {scenario.group().order}")
    if case == "klein":
        survivors = _klein_stages()[1].survivors
        configs = {f"klein-option-{i}": build_klein_config(option) for i, option in enumerate(survivors, start=1)}
    else:
        configs = {"xv": build_xv_config()}
    certificates = {}
    for name, config in configs.items():
        certificate = find_rationality_certificate(config)
        if certificate is None:
            raise NoCertificate(f"no contraction sequence found for {name}")
        # each blow-down raises K^2 by 1 and lowers c2 by 1; both proofs end on a smooth
        # rational curve of square 0, and a rational surface holding one is not P^2
        k = len(certificate.contractions)
        k2, c2 = scenario.report.c1_sq + k, scenario.report.c2 - k
        if k2 > 8 or c2 < 4:
            raise NoCertificate(f"{name}: {k} contractions take (K^2, c2) to ({k2}, {c2}), "
                                f"beyond K^2 <= 8 and c2 >= 4")
        if k != predicted:
            raise NoCertificate(f"{name}: {k} contractions, but the {case} proof predicts {predicted}")
        certificates[name] = certificate
    return certificates


# ---------------------------------------------------------------------------
# proof transcripts


def _fmt_pairs(pairs: Iterable[tuple]) -> str:
    return ", ".join(str(p) for p in pairs) if pairs else "none"


def _klein_text(certificates: dict[str, RationalityCertificate]) -> str:
    """Human-readable transcript of the order-11 proof."""
    lines = ["rationality search: order-11 quotient (case XI)"]
    lines.append("context: five A11,3 points, each resolved by a (-3)-curve A_ij meeting a (-4)-curve B_ij once;")
    lines.append("  the five incidence-curve images D_ij are pinned down by integrality of their")
    lines.append("  intersections with the exceptional curves and with each other")
    stage1, stage2 = _klein_stages()
    lines.append("stage 1: quadruples (a14, b14, u1, u2) with both coefficient pairs in the")
    lines.append("  integrality lattice, positive, and budget a14*u1 + b14*u2 = 5:")
    for quad in stage1:
        lines.append(f"    {quad}")
    lines.append(f"  {len(stage1)} solutions")
    lines.append(f"stage 2: sum-vector candidates (w1, w2): {_fmt_pairs(stage2.w_candidates)}")
    for w in stage2.w_candidates:
        kept = stage2.kept_per_w[w]
        note = f"integrality keeps {_fmt_pairs(kept)}" if kept else "all eliminated"
        lines.append(f"    (w1, w2) = {w}: budget solutions {_fmt_pairs(stage2.candidates_per_w[w])} -> {note}")
    lines.append(f"  conclusion: (a13, b13) = {stage2.first_pair}; surviving options "
                 f"(a14, b14, a23, b23): {_fmt_pairs(stage2.survivors)}")
    for i, (option, cert) in enumerate(zip(stage2.survivors, certificates.values()), start=1):
        lines.append(f"option-{i}: (a14, b14, a23, b23) = {option}")
        lines.append("  checks: all five D_ij have self-intersection -1 and canonical degree -1, pairwise disjoint;")
        lines.append("  every intersection with the exceptional curves is a nonnegative integer")
        mid = cert.states[5]
        lines.append(f"  after contracting {', '.join(cert.contractions[:5])}: "
                     f"A13^2 = {mid.self_int('A13')}, A45^2 = {mid.self_int('A45')}, "
                     f"A13.A45 = {mid.pair('A13', 'A45')}")
        lines.append(f"  full contraction sequence: {', '.join(cert.contractions)}")
        lines.append(f"  final curve {cert.final_curve} with self-intersection "
                     f"{cert.final_self_intersection} on a regular surface (q = 0): rational")
    return "\n".join(lines) + "\n"


def _xv_text(certificates: dict[str, RationalityCertificate]) -> str:
    """Human-readable transcript of the order-15 proof."""
    cert = certificates["xv"]
    lattice = EllipticLattice()
    e1_sq = lattice.divisor_pair(XV_CYCLE, XV_CYCLE)
    e1_e2 = lattice.divisor_pair(XV_CYCLE, XV_PENTAGRAM)
    order = _PROOFS["xv"][0]
    lines = ["rationality search: order-15 quotient (case XV)"]
    lines.append("elliptic-curve orbit divisors: E1^2 = E2^2 = "
                 f"{e1_sq}, E1.E2 = {e1_e2}; their images have "
                 f"H^2 = L^2 = {Fraction(e1_sq, order)} and H.L = {Fraction(e1_e2, order)}")
    lines.append("strict transforms: Hbar^2 = Lbar^2 = -2 with K.Hbar = K.Lbar = 0,")
    lines.append("  Abar^2 = Bbar^2 = -1 with K.Abar = K.Bbar = -1, all checked exactly")
    lines.append("configuration (Abar, Bbar, Tm, Hbar, Lbar), intersection matrix:")
    for row in cert.states[0].matrix:
        lines.append("    " + "  ".join(f"{str(x):>2}" for x in row))
    lines.append(f"contraction sequence ({len(cert.contractions)} blow-downs): "
                 f"{', '.join(cert.contractions)}")
    lines.append(f"final curve {cert.final_curve} with self-intersection "
                 f"{cert.final_self_intersection} on a regular surface (q = 0): rational")
    return "\n".join(lines) + "\n"


def transcript(scenario: QuotientScenario) -> tuple[str, dict[str, RationalityCertificate]]:
    """Human-readable proof transcript of the scenario's rationality case,
    plus its certificates (see ``certify_rationality``)."""
    certificates = certify_rationality(scenario)
    text = _klein_text if scenario.annotations["rationality_case"] == "klein" else _xv_text
    return text(certificates), certificates
