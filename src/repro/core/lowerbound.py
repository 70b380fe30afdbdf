"""Appendix A: the Ω(n√n) per-node communication lower bound.

The paper's argument: any algorithm that finds optimal one-hop routes by
directly comparing alternative one-hop paths must, for every *diamond*
(4-cycle ``a-b-c-d``), co-locate that diamond's four edge weights at some
node. There are ``3 * C(n, 4)`` diamonds in the complete graph (Lemma 2),
a set of ``e`` edges contains at most ``e^2`` diamonds (Lemma 3), so if
every node receives ``e`` edges then ``n * e^2 >= 3 * C(n, 4)`` forces
``e = Ω(n^1.5)`` (Theorem 4).

This module provides exact diamond counting (by co-degrees; the tests
cross-check it against exhaustive enumeration), Lemma 2's count, and the
comparison of the grid quorum's actual communication against the
theorem's floor.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Set, Tuple

from repro.errors import ReproError

__all__ = [
    "diamonds_in_complete_graph",
    "count_diamonds_codegree",
    "theorem4_min_edges_per_node",
    "grid_quorum_edges_received",
    "optimality_ratio",
]

Edge = Tuple[int, int]


def _normalize_edges(edges: Iterable[Edge]) -> Set[Edge]:
    out: Set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise ReproError(f"self-loop ({u}, {v}) is not a valid edge")
        out.add((min(u, v), max(u, v)))
    return out


def diamonds_in_complete_graph(n: int) -> int:
    """Lemma 2: the complete graph on ``n`` nodes has ``3 * C(n, 4)``
    diamonds (each 4-set yields the square, hourglass, and bow tie)."""
    if n < 0:
        raise ReproError("n must be non-negative")
    return 3 * math.comb(n, 4)


def count_diamonds_codegree(edges: Iterable[Edge]) -> int:
    """Count diamonds via co-degrees: ``sum over pairs C(cn(u,v), 2) / 2``.

    Every 4-cycle is counted once per diagonal pair (twice total). Much
    faster than exhaustive enumeration, which the property tests
    cross-check it against (``tests/core/reference_lowerbound.py``).
    """
    edge_set = _normalize_edges(edges)
    adj: Dict[int, Set[int]] = {}
    for u, v in edge_set:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    vertices = sorted(adj)
    twice = 0
    for u, v in itertools.combinations(vertices, 2):
        cn = len(adj[u] & adj[v])
        twice += cn * (cn - 1) // 2
    if twice % 2 != 0:  # pragma: no cover - parity is structural
        raise ReproError("internal error: odd diamond double-count")
    return twice // 2


def theorem4_min_edges_per_node(n: int) -> float:
    """Theorem 4's floor: if every node receives ``e`` edge weights and all
    ``3 C(n,4)`` diamonds must be examined somewhere, then
    ``e >= sqrt(3 C(n,4) / n)`` ~ ``n^1.5 / sqrt(8)``."""
    if n < 4:
        return 0.0
    return math.sqrt(diamonds_in_complete_graph(n) / n)


def grid_quorum_edges_received(n: int) -> int:
    """Edge weights received per node under the grid quorum protocol.

    Each node receives ~``2 sqrt(n)`` full link-state tables of ``n - 1``
    edges each (round 1, counting its own table as local knowledge).
    Uses the exact ``2 (ceil(sqrt(n)) - 1)`` message count of a full grid.
    """
    if n < 1:
        raise ReproError("n must be positive")
    rows = math.isqrt(n)
    if rows * rows != n:
        rows = math.isqrt(n) + 1
    per_round = 2 * (rows - 1)
    return (per_round + 1) * (n - 1)


def optimality_ratio(n: int) -> float:
    """How far the grid quorum sits above the Theorem 4 floor.

    Returns ``edges_received / min_edges`` — a constant (≈ 2 sqrt(2) ≈
    2.8) independent of ``n``, demonstrating the paper's claim that the
    construction is within a constant factor of optimal.
    """
    floor = theorem4_min_edges_per_node(n)
    if floor == 0:
        return float("inf")
    return grid_quorum_edges_received(n) / floor
