"""Blow-downs of curve configurations and rationality certificates.

A ``CurveConfig`` records finitely many curves on a smooth surface: their
intersection matrix, canonical degrees, and genera, all integers.
Contracting a (-1)-curve E transforms the rest by the classical rules

    C.C'  ->  C.C' + (C.E)(C'.E),      K.C  ->  K.C - C.E,

and a rationality certificate is a contraction sequence that ends with a
smooth genus-0 curve of self-intersection >= 0.  It proves rationality only
on a regular (q = 0) surface; the caller checks q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence


class NotMinusOneCurve(ValueError):
    """Attempted to contract a curve that is not a smooth rational (-1)-curve."""


def _integer(value, what: str) -> int:
    """The integer equal to ``value``; a fractional value is rejected, never truncated."""
    if isinstance(value, int):
        return value
    exact = Fraction(value)
    if exact.denominator != 1:
        raise ValueError(f"{what} = {value} is not an integer")
    return exact.numerator


class CurveConfig(NamedTuple):
    names: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    k_degrees: tuple[int, ...]
    genera: tuple[int, ...]

    @classmethod
    def build(cls, names: Sequence[str], matrix: Sequence[Sequence], k_degrees: Sequence,
              genera: Sequence[int]) -> "CurveConfig":
        names = tuple(names)
        if any(len(x) != len(names) for x in (matrix, *matrix, k_degrees, genera)):
            raise ValueError("intersection matrix, K-degrees or genera do not match the curve count")
        m = tuple(tuple(_integer(x, f"{a}.{b}") for b, x in zip(names, row)) for a, row in zip(names, matrix))
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if m[i][j] != m[j][i]:
                    raise ValueError(f"intersection matrix not symmetric at {names[i]},{names[j]}")
        config = cls(names, m, tuple(_integer(k, f"K.{a}") for a, k in zip(names, k_degrees)),
                     tuple(_integer(g, f"genus of {a}") for a, g in zip(names, genera)))
        for name in names:
            config.arithmetic_genus(name)  # rejects an odd C^2 + K.C
        return config

    def index(self, name: str) -> int:
        return self.names.index(name)

    def pair(self, a: str, b: str) -> int:
        return self.matrix[self.index(a)][self.index(b)]

    def self_int(self, name: str) -> int:
        i = self.index(name)
        return self.matrix[i][i]

    def k_degree(self, name: str) -> int:
        return self.k_degrees[self.index(name)]

    def genus(self, name: str) -> int:
        return self.genera[self.index(name)]

    def arithmetic_genus(self, name: str) -> int:
        """1 + (C^2 + K.C)/2; C^2 + K.C is even for every curve on a smooth surface."""
        i = self.index(name)
        half, odd = divmod(self.matrix[i][i] + self.k_degrees[i], 2)
        if odd:
            raise ValueError(f"{name}: C^2 + K.C = {2 * half + odd} is odd")
        return 1 + half

    def is_smooth(self, name: str) -> bool:
        """Adjunction genus equals the carried geometric genus."""
        return self.arithmetic_genus(name) == self.genus(name)

    def minus_one_curves(self) -> list[str]:
        return [n for i, n in enumerate(self.names)
                if self.genera[i] == 0 and self.matrix[i][i] == -1 and self.k_degrees[i] == -1]

    def certificate_curves(self) -> list[str]:
        """Smooth genus-0 members with self-intersection >= 0."""
        return [n for i, n in enumerate(self.names)
                if self.genera[i] == 0 and self.matrix[i][i] >= 0 and self.is_smooth(n)]

    def key(self) -> tuple:
        return (self.names, self.matrix, self.k_degrees, self.genera)


def contract(config: CurveConfig, curve: str) -> CurveConfig:
    """Contract a (-1)-curve and transform the remaining configuration."""
    e = config.index(curve)
    if config.genera[e] != 0 or config.matrix[e][e] != -1 or config.k_degrees[e] != -1:
        raise NotMinusOneCurve(
            f"{curve}: genus {config.genera[e]}, self-intersection {config.matrix[e][e]}, "
            f"K-degree {config.k_degrees[e]}")
    keep = [i for i in range(len(config.names)) if i != e]
    col = [config.matrix[i][e] for i in range(len(config.names))]
    new_matrix = tuple(
        tuple(config.matrix[i][j] + col[i] * col[j] for j in keep) for i in keep)
    new_k = tuple(config.k_degrees[i] - col[i] for i in keep)
    new_config = CurveConfig(
        tuple(config.names[i] for i in keep),
        new_matrix,
        new_k,
        tuple(config.genera[i] for i in keep),
    )
    _assert_adjunction(new_config)
    return new_config


def _assert_adjunction(config: CurveConfig):
    # images of curves meeting the contracted one in m points gain m(m-1)/2
    # nodes, so the adjunction genus may exceed the carried geometric genus
    # but can never drop below it
    for name in config.names:
        g = config.arithmetic_genus(name)
        assert g >= config.genus(name), \
            f"adjunction broken for {name}: genus formula gives {g} < {config.genus(name)}"


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
    seen: set[tuple] = set()

    def dfs(state: CurveConfig, trail: tuple[str, ...], states: tuple[CurveConfig, ...]):
        winners = state.certificate_curves()
        if winners:
            name = winners[0]
            return RationalityCertificate(trail, name, state.self_int(name), states)
        key = state.key()
        if key in seen:
            return None
        seen.add(key)
        for curve in state.minus_one_curves():
            child = contract(state, curve)
            result = dfs(child, trail + (curve,), states + (child,))
            if result is not None:
                return result
        return None

    return dfs(config, (), (config,))
