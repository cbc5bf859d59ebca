"""Invariants of the minimal resolution of a quotient of the Fano surface.

The base surface S is fixed: K_S^2 = 45, e(S) = 27, and H^0(Omega_S) is
5-dimensional (q = 5, p_g = 10).  A scenario bundles a finite automorphism
group (5x5 cyclotomic generators), the fixed-point strata with their Euler
numbers, the ramification curves with their intersection data on S, the list
of cyclic quotient singularities, and optional fibration data.  From that the
engine computes

    c1^2   by the ramification formula plus per-singularity corrections,
    c2     by the stratified Euler number plus exceptional components,
    q, p_g by averaging characters over the group (forms and 2-forms),
    chi    = 1 - q + p_g,  h^{1,1} = c2 - 2 + 4q - 2p_g,

and cross-checks Noether's relation 12 chi = c1^2 + c2.

Only catalog.scenario_from_dict builds the records.  The input defaults and
checks (intersection pairs, stabilizer orders, indices) are the catalog's alone
and run before any report; the engine does not repeat them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .cyclotomic_rep import (
    CycMatrix,
    FiniteMatrixGroup,
    character_sum,
    exterior_square_trace,
    group_closure,
    invariant_dimension,
)
from .hj_resolution import CyclicSing

BASE_K2 = Fraction(45)
BASE_EULER = 27


class NonIntegralEuler(ArithmeticError):
    """The stratified Euler number of the quotient failed to be an integer."""


class NonIntegralGenus(ArithmeticError):
    """A genus formula (adjunction, Riemann-Hurwitz) gave no nonnegative integer."""


# records take their fields in the functional form, whose types are objects: the class
# form would compile each annotation, a string under the __future__ import, at import time

# points whose stabilizer has the given order, with their Euler number
Stratum = NamedTuple("Stratum", [("order", int), ("euler", int)])

# a curve on S fixed pointwise by a subgroup of the given order, with its integer intersection numbers
RamificationCurve = NamedTuple("RamificationCurve", [
    ("name", str), ("index", int), ("self_int", int), ("k_degree", int), ("meets", dict[str, int])])

# genus data for the induced fibration over an elliptic Albanese image
Fibration = NamedTuple("Fibration", [("fiber_genus", int), ("deck_order", int), ("ramification", int)])


class QuotientScenario(NamedTuple("QuotientScenario", [
        ("label", str), ("generators", tuple[CycMatrix, ...]), ("strata", tuple[Stratum, ...]),
        ("ramification", tuple[RamificationCurve, ...]), ("singularities", tuple[tuple[CyclicSing, int], ...]),
        ("fibration", Optional[Fibration]), ("annotations", dict), ("display", dict), ("table", Optional[int]),
        ("source", str)])):
    # derived values are computed once per scenario; cached_property stores
    # them in the instance __dict__, which this subclass keeps by declaring no __slots__

    @cached_property
    def group(self) -> FiniteMatrixGroup:
        return group_closure(self.generators)

    @cached_property
    def report(self) -> InvariantReport:
        """The full report, shared by every caller; see ``full_report``."""
        return full_report(self)


# ---------------------------------------------------------------------------
# the individual invariants


def euler_quotient(scenario: QuotientScenario) -> int:
    """e(S/G) = (1/|G|) (e(S) + sum_{n>=2} (n-1) e(S_n)), asserted integral."""
    order = scenario.group.order
    total = Fraction(BASE_EULER)
    for stratum in scenario.strata:
        total += (stratum.order - 1) * stratum.euler
    value = total / order
    if value.denominator != 1:
        raise NonIntegralEuler(f"{scenario.label}: e(S/G) = {value} is not an integer")
    return int(value)


def lefschetz_euler_quotient(group: FiniteMatrixGroup) -> int:
    """e(S/G) from the group action alone, by the topological Lefschetz formula.

    H^1(S) = V + conj(V) for the 1-forms V and H^2(S) = Lambda^2 H^1, so with
    s = tr g, t = s + conj(s) and t2 = tr g^2 + conj(tr g^2) the fixed locus
    has e(S^g) = 2 - 2t + (t^2 - t2)/2, and (t^2 - t2)/2, the character of
    Lambda^2 (V + conj(V)) = Lambda^2 V + Lambda^2 conj(V) + V conj(V), is
    w + conj(w) + s conj(s) with w the exterior-square character.  Summed over
    G with S = sum s and W = sum w, read from the values the group keeps for q
    and p_g, that is 2|G| - 2(S + conj S) + W + conj W + sum s conj(s).  As
    S = |G| q, W = |G| p_g and sum s conj(s) = |G| <chi, chi>,

        e(S/G) = 2 - 4q + 2p_g + <chi, chi>.
    """
    traces = group.character(CycMatrix.trace)
    trace_sum, wedge_sum = character_sum(traces), character_sum(group.character(exterior_square_trace))
    norms = character_sum(traces, [t.conjugate() for t in traces])
    total = norms + wedge_sum + wedge_sum.conjugate() - 2 * (trace_sum + trace_sum.conjugate()) + 2 * group.order
    if total.is_rational():
        value, rest = divmod(total.as_int(), group.order)
        if not rest:
            return value
    raise NonIntegralEuler(f"the Lefschetz average {total!r} / {group.order} is not an integer")


def k2_quotient(scenario: QuotientScenario) -> Fraction:
    """K_{S/G}^2 = (1/|G|) (K_S - sum_R (|H_R| - 1) R)^2, expanded exactly."""
    order = scenario.group.order
    curves = scenario.ramification
    total = BASE_K2
    for r in curves:
        weight = r.index - 1
        total -= 2 * weight * r.k_degree
        total += weight * weight * r.self_int
    for i, r in enumerate(curves):
        for s in curves[i + 1:]:
            # the catalog ensures that one of the two curves holds the value, and that two agree
            cross = r.meets[s.name] if s.name in r.meets else s.meets[r.name]
            total += 2 * (r.index - 1) * (s.index - 1) * cross
    return total / order


def albanese_fiber_genus(fiber_genus: int, deck_order: int, ramification: int) -> int:
    """Genus g' of the quotient fiber: 2g - 2 = d (2g' - 2) + r (Riemann-Hurwitz)."""
    value = Fraction(2 * fiber_genus - 2 - ramification, 2 * deck_order) + 1
    if value.denominator != 1 or value < 0:
        raise NonIntegralGenus(
            f"Riemann-Hurwitz gives a bad quotient-fiber genus {value} "
            f"for (g={fiber_genus}, d={deck_order}, r={ramification})")
    return int(value)


# what full_report computes, and nothing the scenario already holds: every field but flags
# is a key of the JSON report's computed block
InvariantReport = NamedTuple("InvariantReport", [
    ("c1_sq", int | Fraction),  # c1_sq stays a Fraction only for flagged, inconsistent input
    ("c2", int), ("q", int), ("p_g", int), ("chi", int), ("h11", int), ("fiber_genus", Optional[int]),
    ("singularities", str), ("noether_ok", bool), ("k2_quotient", Fraction), ("k2_correction", Fraction),
    ("euler_quotient", int), ("exceptional_components", int), ("flags", tuple[str, ...])])


def full_report(scenario: QuotientScenario) -> InvariantReport:
    """Assemble every invariant and run the Noether cross-check.

    A failed Noether identity or a fractional c1^2 is reported as a flag so
    that inconsistent user scenarios still produce diagnostics; a non-integral
    e(S/G) or fiber genus raises.
    """
    flags: list[str] = []
    k2q = k2_quotient(scenario)
    correction = sum((count * s.chain().k2_correction() for s, count in scenario.singularities), Fraction(0))
    c1_sq = k2q + correction
    if c1_sq.denominator != 1:
        flags.append(f"c1^2 = {c1_sq} is not an integer")
    e_quot = euler_quotient(scenario)
    components = sum(count * len(sing.chain()) for sing, count in scenario.singularities)
    c2 = e_quot + components
    q = invariant_dimension(scenario.group, CycMatrix.trace)  # invariant 1-forms
    p_g = invariant_dimension(scenario.group, exterior_square_trace)  # invariant 2-forms
    chi = 1 - q + p_g
    h11 = c2 - 2 + 4 * q - 2 * p_g
    noether_ok = 12 * chi == c1_sq + c2
    if not noether_ok:
        flags.append(f"Noether violated: 12*{chi} != {c1_sq} + {c2}")
    fiber = None
    if scenario.fibration is not None:
        fib = scenario.fibration
        fiber = albanese_fiber_genus(fib.fiber_genus, fib.deck_order, fib.ramification)
    parts = []
    for sing, count in scenario.singularities:
        prefix = "" if count == 1 else str(count)
        parts.append(f"{prefix}{sing.display()}")
    return InvariantReport(
        c1_sq=int(c1_sq) if c1_sq.denominator == 1 else c1_sq,
        c2=c2,
        q=q,
        p_g=p_g,
        chi=chi,
        h11=h11,
        fiber_genus=fiber,
        singularities="+".join(parts),
        noether_ok=noether_ok,
        k2_quotient=k2q,
        k2_correction=correction,
        euler_quotient=e_quot,
        exceptional_components=components,
        flags=tuple(flags),
    )
