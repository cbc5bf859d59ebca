"""Q-valued intersection theory on a normal surface via its resolution.

A normal surface Y with cyclic quotient singularities is presented by the chains of its
minimal resolution g: Z -> Y plus, for each named curve C on Y, the pairing values C.C'
downstairs, the degree K_Y.C, and the multiplicities with which the strict transform meets
each exceptional component.  Writing Cbar = g*C - sum a_i C_i with g*C . C_i = 0, the
coefficients a_i solve M a = -m on the chain intersection matrix M, once per curve and point
when the model is built, by the closed-form inverse of ``ExceptionalChain.solve``, and each
solution is checked against that relation.  They share its denominator n, kept as the
integers n a_i: each pairing on Z is one integer sum per point over n.  Genera are not read
here: a ``blowdown.CurveConfig`` checks adjunction when it is made.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .hj_resolution import ExceptionalChain


class UnknownCurve(KeyError):
    pass


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class ResolutionModel(NamedTuple("ResolutionModel", [
        ("chains", dict[str, ExceptionalChain]), ("curves", tuple[str, ...]),
        ("pairing", dict[tuple[str, str], Fraction]), ("k_degree", dict[str, Fraction]),
        ("incidence", dict[str, dict[str, tuple[int, ...]]]),
        ("strict", dict[str, dict[str, tuple[tuple[int, ...], int]]])])):
    """Named curves on a normal surface together with its resolution data.

    chains: singular point name -> exceptional chain of its resolution
    pairing: downstairs values C.C' (symmetric; key order-insensitive)
    k_degree: K_Y.C per named curve
    incidence: curve -> point -> per-component multiplicities of Cbar.C_i
    strict: curve -> point -> (s, n) with a = s / n solving M a = -m (all s_i >= 0)
    """

    __slots__ = ()

    @classmethod
    def build(cls, chains: Mapping[str, ExceptionalChain], curves: Iterable[str],
              pairing: Mapping[tuple[str, str], Fraction], k_degree: Mapping[str, Fraction],
              incidence: Mapping[str, Mapping[str, Sequence[int]]]) -> "ResolutionModel":
        """Solve each strict transform once per point it meets; ``_config_from_model`` checks the results."""
        curves = tuple(curves)
        inc = {name: dict(incidence.get(name, {})) for name in curves}
        strict = {name: {} for name in curves}
        for name in curves:
            for point, mults in inc[name].items():
                if len(mults) != len(chains[point]):  # solve would zip a short vector without a word
                    raise ValueError(f"incidence for {name} at {point} has wrong length")
                s, n = chains[point].solve([-m for m in mults])
                # definitional check g*C . C_i = (Cbar + sum a C) . C_i = m + M a = 0, times n
                padded = (0, *s, 0)
                if any(n * m + padded[i] - b * padded[i + 1] + padded[i + 2] for i, (m, b)
                       in enumerate(zip(mults, chains[point].selfints))):
                    raise ValueError(f"pullback relation violated at {point}")
                if any(x < 0 for x in s):
                    raise ValueError(f"negative strict-transform coefficient for {name} at {point}")
                strict[name][point] = (tuple(s), n)
        return cls(dict(chains), curves, {_pair_key(a, b): v for (a, b), v in pairing.items()},
                   {name: k_degree[name] for name in curves}, inc, strict)

    def strict_transform_numerators(self, curve: str) -> dict[str, tuple[tuple[int, ...], int]]:
        """Per singular point, (s, n) with a = s / n solving M a = -m (all s_i >= 0)."""
        if curve not in self.strict:
            raise UnknownCurve(curve)
        return self.strict[curve]

    def pair_on_resolution(self, c1: str, c2: str) -> Fraction:
        """Strict-transform intersection Cbar1 . Cbar2 = C1.C2 + a1^T M a2 = C1.C2 - a1.m2."""
        total = self.downstairs(c1, c2)
        if c2 not in self.incidence:
            raise UnknownCurve(c2)
        mults2 = self.incidence[c2]
        for point, (s, n) in self.strict_transform_numerators(c1).items():
            if point in mults2:
                total -= Fraction(sum(x * m for x, m in zip(s, mults2[point])), n)
        return total

    def pair_with_component(self, curve: str, point: str, index: int) -> int:
        """Cbar . C_i for an exceptional component (the incidence multiplicity)."""
        mults = self.incidence[curve].get(point)
        return 0 if mults is None else mults[index]

    def kz_degree(self, curve: str) -> Fraction:
        """K_Z . Cbar = K_Y . C + sum (2 - b_i) a_i, from K_Z = g*K_Y - sum d_i C_i with M d = (2 - b)."""
        total = self.k_degree[curve]
        for point, (s, n) in self.strict_transform_numerators(curve).items():
            total += Fraction(sum((2 - b) * x for b, x in zip(self.chains[point].selfints, s)), n)
        return total

    def downstairs(self, c1: str, c2: str) -> Fraction:
        key = _pair_key(c1, c2)
        if key not in self.pairing:
            raise UnknownCurve(f"no downstairs pairing recorded for {key}")
        return self.pairing[key]
