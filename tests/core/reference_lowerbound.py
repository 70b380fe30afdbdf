"""Appendix A by enumeration: the oracles the diamond counter is held to.

``repro.core.lowerbound.count_diamonds_codegree`` counts diamonds by
co-degrees; :func:`count_diamonds_exhaustive` enumerates every 4-set,
and :func:`lemma3_bound` is Lemma 3's ``e^2`` ceiling. ``test_lowerbound.py``
checks the counter against both.
"""

import itertools
from typing import Iterable

from repro.core.lowerbound import Edge, _normalize_edges
from repro.errors import ReproError


def count_diamonds_exhaustive(edges: Iterable[Edge]) -> int:
    """Count diamonds by enumerating 4-subsets of the touched vertices.

    A diamond ``a-b-c-d`` needs edges (a,b), (b,c), (c,d), (d,a). For each
    unordered 4-set, the three distinct pairings are checked. O(v^4);
    intended for small inputs and as a cross-check oracle.
    """
    edge_set = _normalize_edges(edges)
    vertices = sorted({u for e in edge_set for u in e})

    def has(u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in edge_set

    count = 0
    for a, b, c, d in itertools.combinations(vertices, 4):
        # Three distinct cycles on {a, b, c, d}: a-b-c-d, a-b-d-c, a-c-b-d.
        for p, q, r, s in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            if has(p, q) and has(q, r) and has(r, s) and has(s, p):
                count += 1
    return count


def lemma3_bound(num_edges: int) -> int:
    """Lemma 3: ``e`` edges form at most ``e^2`` diamonds."""
    if num_edges < 0:
        raise ReproError("edge count must be non-negative")
    return num_edges * num_edges
