"""Appendix A — the Ω(n√n) per-node communication lower bound.

Paper result: the complete graph has 3·C(n,4) diamonds (Lemma 2); any e
edges form at most e^2 diamonds (Lemma 3); hence every comparison-based
algorithm needs Ω(n√n) per-node communication (Theorem 4), and the grid
quorum construction sits within a constant factor of that floor.
"""

import itertools

from conftest import published

from repro.core.lowerbound import (
    count_diamonds_codegree,
    diamonds_in_complete_graph,
    optimality_ratio,
)


def test_lower_bound_table():
    published("capacity")

    # Lemma 2 exact check at a nontrivial size.
    n = 9
    edges = list(itertools.combinations(range(n), 2))
    assert count_diamonds_codegree(edges) == diamonds_in_complete_graph(n)

    # The construction is within a constant factor of optimal, and the
    # factor does not drift with n.
    ratios = [optimality_ratio(n) for n in (400, 2500, 10_000, 40_000)]
    assert all(1.0 <= r < 8.0 for r in ratios)
    assert max(ratios) / min(ratios) < 1.3
