"""Q-valued intersection theory on a normal surface via its resolution.

A normal surface Y with cyclic quotient singularities is presented by the
chains of its minimal resolution g: Z -> Y plus, for each named curve C on Y,
the pairing values C.C' downstairs, the degree K_Y.C, and the multiplicities
with which the strict transform meets each exceptional component.  Writing
Cbar = g*C - sum a_i C_i with the defining relations g*C . C_i = 0, the
coefficients a_i solve M a = -m against the chain intersection matrix, and
everything else (strict-transform pairings, canonical degrees on Z, the K^2
correction) expands bilinearly from there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .hj_resolution import ExceptionalChain, chain_solve


class NonIntegralGenus(ArithmeticError):
    """A genus formula (adjunction, Riemann-Hurwitz) gave no nonnegative integer."""


class UnknownCurve(KeyError):
    pass


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class _ModelFields(NamedTuple):
    chains: dict[str, ExceptionalChain]
    curves: tuple[str, ...]
    pairing: dict[tuple[str, str], Fraction]
    k_degree: dict[str, Fraction]
    incidence: dict[str, dict[str, tuple[int, ...]]]


class ResolutionModel(_ModelFields):
    """Named curves on a normal surface together with its resolution data.

    chains: singular point name -> exceptional chain of its resolution
    pairing: downstairs values C.C' (symmetric; key order-insensitive)
    k_degree: K_Y.C per named curve
    incidence: curve -> point -> per-component multiplicities of Cbar.C_i
    """

    # no __slots__: the instance __dict__ keeps the strict-transform
    # coefficients, solved and checked once per curve

    @classmethod
    def build(cls, chains: Mapping[str, ExceptionalChain], curves: Iterable[str],
              pairing: Mapping[tuple[str, str], Fraction], k_degree: Mapping[str, Fraction],
              incidence: Mapping[str, Mapping[str, Iterable[int]]]) -> "ResolutionModel":
        curve_list = tuple(curves)
        pairs = {}
        for (a, b), v in pairing.items():
            key = _pair_key(a, b)
            value = Fraction(v)
            if pairs.get(key, value) != value:
                raise ValueError(f"conflicting pairing values for {key}")
            pairs[key] = value
        inc = {}
        for name in curve_list:
            per_point = {}
            for point, mults in incidence.get(name, {}).items():
                if point not in chains:
                    raise UnknownCurve(f"incidence references unknown singular point {point!r}")
                vec = tuple(int(m) for m in mults)
                if len(vec) != len(chains[point]):
                    raise ValueError(f"incidence for {name} at {point} has wrong length")
                if any(m < 0 for m in vec):
                    raise ValueError(f"negative incidence multiplicity for {name} at {point}")
                per_point[point] = vec
            inc[name] = per_point
        return cls(dict(chains), curve_list, pairs, {c: Fraction(k_degree[c]) for c in curve_list}, inc)

    # -- strict transforms ---------------------------------------------------

    def strict_transform_coeffs(self, curve: str) -> dict[str, tuple[Fraction, ...]]:
        """Per singular point, the coefficients a with M a = -m (all >= 0)."""
        strict = vars(self).setdefault("strict", {})
        if curve in strict:
            return strict[curve]
        if curve not in self.incidence:
            raise UnknownCurve(curve)
        out = {}
        for point, mults in self.incidence[curve].items():
            chain = self.chains[point]
            coeffs = chain_solve(chain.selfints, [-m for m in mults])
            # definitional check g*C . C_i = (Cbar + sum a C) . C_i = m + M a = 0
            residual = [chain.bilinear(_unit(len(mults), i), coeffs) + mults[i] for i in range(len(mults))]
            assert all(r == 0 for r in residual), f"pullback relation violated at {point}"
            if any(c < 0 for c in coeffs):
                raise ValueError(f"negative strict-transform coefficient for {curve} at {point}")
            out[point] = coeffs
        strict[curve] = out
        return out

    def pair_on_resolution(self, c1: str, c2: str) -> Fraction:
        """Strict-transform intersection Cbar1 . Cbar2 on the resolution."""
        base = self.downstairs(c1, c2)
        a1 = self.strict_transform_coeffs(c1)
        a2 = self.strict_transform_coeffs(c2)
        for point in set(a1) & set(a2):
            base += self.chains[point].bilinear(a1[point], a2[point])
        return base

    def pair_with_component(self, curve: str, point: str, index: int) -> Fraction:
        """Cbar . C_i for an exceptional component (the incidence multiplicity)."""
        mults = self.incidence[curve].get(point)
        if mults is None:
            return Fraction(0)
        return Fraction(mults[index])

    def kz_degree(self, curve: str) -> Fraction:
        """K_Z . Cbar from K_Z = g*K_Y - sum (discrepancies) and the relations."""
        total = self.k_degree[curve]
        for point, coeffs in self.strict_transform_coeffs(curve).items():
            chain = self.chains[point]
            # (sum d_i C_i).(sum a_j C_j) with M d = (2 - b): collapses to sum (2-b_i) a_i
            total += sum((2 - b) * a for b, a in zip(chain.selfints, coeffs))
        return total

    def downstairs(self, c1: str, c2: str) -> Fraction:
        key = _pair_key(c1, c2)
        if key not in self.pairing:
            raise UnknownCurve(f"no downstairs pairing recorded for {key}")
        return self.pairing[key]


def _unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(j == i)) for j in range(n))


def adjunction_genus(self_int: Fraction, k_degree: Fraction) -> Fraction:
    """Arithmetic genus 1 + (C^2 + K.C)/2 of a curve on a smooth surface."""
    g = 1 + (Fraction(self_int) + Fraction(k_degree)) / 2
    if g.denominator != 1 or g < 0:
        raise NonIntegralGenus(f"genus {g} is not a nonnegative integer")
    return g
