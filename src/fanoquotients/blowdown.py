"""Blow-downs of curve configurations and rationality certificates.

A ``CurveConfig`` records finitely many curves on a smooth surface: their
intersection matrix and canonical degrees, all integers, checked against
adjunction when it is made.  Contracting a (-1)-curve E transforms the rest
by the classical rules

    C.C'  ->  C.C' + (C.E)(C'.E),      K.C  ->  K.C - C.E,

and a rationality certificate is a contraction sequence that ends with a
smooth genus-0 curve of self-intersection >= 0.  It proves rationality only
on a regular (q = 0) surface; the caller checks q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .quotient_engine import NonIntegralGenus


class NotMinusOneCurve(ValueError):
    """Attempted to contract a curve that is not a smooth rational (-1)-curve."""


class CurveConfig(NamedTuple("CurveConfig", [
        ("names", tuple[str, ...]), ("matrix", tuple[tuple[int, ...], ...]), ("k_degrees", tuple[int, ...])])):
    """Curves on a smooth surface, checked when made: each genus 1 + (C^2 + K.C)/2 is a nonnegative integer."""

    __slots__ = ()

    def __new__(cls, names: tuple[str, ...], matrix: tuple[tuple[int, ...], ...], k_degrees: tuple[int, ...]):
        for i, name in enumerate(names):
            twice = 2 + matrix[i][i] + k_degrees[i]  # twice the genus
            if twice % 2 or twice < 0:
                raise NonIntegralGenus(f"{name}: genus {Fraction(twice, 2)} is not a nonnegative integer")
        return tuple.__new__(cls, (names, matrix, k_degrees))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _make and _replace, which calls it, check too

    def index(self, name: str) -> int:
        return self.names.index(name)

    def pair(self, a: str, b: str) -> int:
        return self.matrix[self.index(a)][self.index(b)]

    def self_int(self, name: str) -> int:
        i = self.index(name)
        return self.matrix[i][i]

    def k_degree(self, name: str) -> int:
        return self.k_degrees[self.index(name)]

    def arithmetic_genus(self, name: str) -> int:
        """1 + (C^2 + K.C)/2, an integer for every curve on a smooth surface: the geometric
        genus plus the delta invariants of the singular points, so 0 means smooth and rational."""
        i = self.index(name)
        return 1 + (self.matrix[i][i] + self.k_degrees[i]) // 2

    def minus_one_curves(self) -> list[str]:
        return [n for i, n in enumerate(self.names)
                if self.matrix[i][i] == -1 and self.k_degrees[i] == -1]

    def certificate_curves(self) -> list[str]:
        """Smooth rational members with self-intersection >= 0."""
        return [n for i, n in enumerate(self.names)
                if self.matrix[i][i] >= 0 and self.arithmetic_genus(n) == 0]


def contract(config: CurveConfig, curve: str) -> CurveConfig:
    """Contract a (-1)-curve and transform the remaining configuration."""
    e = config.index(curve)
    if config.matrix[e][e] != -1 or config.k_degrees[e] != -1:
        raise NotMinusOneCurve(f"{curve}: self-intersection {config.matrix[e][e]}, K-degree {config.k_degrees[e]}")
    keep = [i for i in range(len(config.names)) if i != e]
    col = [config.matrix[i][e] for i in range(len(config.names))]
    new_matrix = tuple(
        tuple(config.matrix[i][j] + col[i] * col[j] for j in keep) for i in keep)
    new_k = tuple(config.k_degrees[i] - col[i] for i in keep)
    # images of curves meeting the contracted one in m points gain m(m-1)/2 nodes, so an
    # arithmetic genus may rise but never turn negative; the new configuration checks it
    return CurveConfig(tuple(config.names[i] for i in keep), new_matrix, new_k)


class RationalityCertificate(NamedTuple):
    """An explicit blow-down sequence ending in a genus-0 curve with C^2 >= 0."""

    contractions: tuple[str, ...]
    final_curve: str
    final_self_intersection: int
    states: tuple[CurveConfig, ...]  # configuration before each contraction, then final

    @property
    def final_config(self) -> CurveConfig:
        return self.states[-1]

    def to_json_dict(self) -> dict:
        final = self.final_config
        return {
            "contractions": list(self.contractions),
            "final_curve": self.final_curve,
            "final_self_intersection": str(self.final_self_intersection),
            "final_matrix": {
                "curves": list(final.names),
                "entries": [[str(x) for x in row] for row in final.matrix],
            },
        }


def find_rationality_certificate(config: CurveConfig) -> Optional[RationalityCertificate]:
    """Depth-first search over contraction sequences; first certificate wins.

    Returns None when the search space is exhausted without reaching a
    genus-0 curve of nonnegative square.
    """
    seen: set[CurveConfig] = set()  # a configuration of tuples is its own key

    def dfs(state: CurveConfig, trail: tuple[str, ...], states: tuple[CurveConfig, ...]):
        winners = state.certificate_curves()
        if winners:
            name = winners[0]
            return RationalityCertificate(trail, name, state.self_int(name), states)
        if state in seen:
            return None
        seen.add(state)
        for curve in state.minus_one_curves():
            child = contract(state, curve)
            result = dfs(child, trail + (curve,), states + (child,))
            if result is not None:
                return result
        return None

    return dfs(config, (), (config,))
