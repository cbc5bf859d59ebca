"""Q-valued intersection theory on a normal surface via its resolution (Mumford, Publ. IHES 9, 1961).

A normal surface Y with cyclic quotient singularities is presented by the chains of its minimal
resolution g: Z -> Y plus, for each curve C on Y (a key of the K-degree table), its degree K_Y.C,
the pairings C.C' downstairs and the multiplicities m_i of its strict transform Cbar with each
exceptional component C_i.  Writing Cbar = g*C - sum a_i C_i with g*C . C_i = 0, the a_i solve
M a = -m on the chain matrix M, once per curve and point, by ``ExceptionalChain.solve``, and each
solution is checked against that relation.  ``ResolutionModel.build`` folds those solutions into one
table of every nonzero pairing on Z and one of K_Z-degrees and keeps only the two tables, so the
model is data.  Genera are not read here: a ``blowdown.CurveConfig`` checks adjunction when made.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .hj_resolution import ExceptionalChain


class UnknownCurve(KeyError):
    pass


class ResolutionModel(NamedTuple("ResolutionModel", [
        ("pairing", dict[tuple, Fraction]), ("k_degree", dict[str | tuple[str, int], Fraction])])):
    """Named curves on a normal surface and their pairings on its minimal resolution Z.  A key is
    a curve name, for its strict transform, or a (point, index) pair, for an exceptional component.

    pairing: x.y on Z for every two keys that meet, in both orders; a missing pair is 0
    k_degree: K_Z.x for every key
    """

    __slots__ = ()

    @classmethod
    def build(cls, chains: Mapping[str, ExceptionalChain], pairing: Mapping[tuple[str, str], Fraction],
              k_degree: Mapping[str, Fraction],
              incidence: Mapping[str, Mapping[str, Sequence[int]]]) -> "ResolutionModel":
        """Solve each strict transform once per point it meets, as (s, n) with a = s / n solving
        M a = -m (all s_i >= 0), then fill both tables; the solutions are not kept.  The curves are
        the keys of ``k_degree``; a pair with no downstairs value C.C' raises ``UnknownCurve``."""
        curves = tuple(k_degree)
        inc = {name: incidence.get(name, {}) for name in curves}
        strict = {name: {} for name in curves}
        table, k_z = {}, {}
        for point, chain in chains.items():  # C_i.C_j is the chain matrix entry, K_Z.C_i = b_i - 2
            for i, b in enumerate(chain.selfints):
                table[(point, i), (point, i)] = -b
                k_z[point, i] = b - 2
                if i:
                    table[(point, i - 1), (point, i)] = table[(point, i), (point, i - 1)] = 1
        for name in curves:
            k_z[name] = k_degree[name]
            for point, mults in inc[name].items():
                selfints = chains[point].selfints
                if len(mults) != len(selfints):  # solve would zip a short vector without a word
                    raise ValueError(f"incidence for {name} at {point} has wrong length")
                s, n = chains[point].solve([-m for m in mults])
                # definitional check g*C . C_i = (Cbar + sum a C) . C_i = m + M a = 0, times n
                padded = (0, *s, 0)
                if any(n * m + padded[i] - b * padded[i + 1] + padded[i + 2] for i, (m, b)
                       in enumerate(zip(mults, selfints))):
                    raise ValueError(f"pullback relation violated at {point}")
                if any(x < 0 for x in s):
                    raise ValueError(f"negative strict-transform coefficient for {name} at {point}")
                strict[name][point] = (tuple(s), n)
                # K_Z.Cbar = K_Y.C + sum (2 - b_i) a_i, from K_Z = g*K_Y - sum d_i C_i with M d = 2 - b
                k_z[name] += Fraction(sum((2 - b) * x for b, x in zip(selfints, s)), n)
                for i, m in enumerate(mults):  # Cbar.C_i = m_i
                    if m:
                        table[name, (point, i)] = table[(point, i), name] = m
        for i, c1 in enumerate(curves):  # Cbar1.Cbar2 = C1.C2 + a1^T M a2 = C1.C2 - a1.m2
            for c2 in curves[i:]:
                v = pairing.get((c1, c2), pairing.get((c2, c1)))
                if v is None:
                    raise UnknownCurve(f"no downstairs pairing recorded for {(c1, c2)}")
                for point, (s, n) in strict[c1].items():
                    if point in inc[c2]:
                        v -= Fraction(sum(x * m for x, m in zip(s, inc[c2][point])), n)
                if v:
                    table[c1, c2] = table[c2, c1] = v
        return cls(table, k_z)
