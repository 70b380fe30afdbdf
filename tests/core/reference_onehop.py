"""The best one-hop of one client pair from its two rows, as §3 states it.

The routers and the rendezvous kernels compute every pair at once
(``repro.core.onehop.best_one_hop_all_pairs``,
``QuorumRouter._best_one_hops``); this one-pair form is the statement
``test_onehop.py`` checks against brute force, and the directed variant
in ``reference_asymmetric.py`` shares its direct-path convention.
"""

from typing import Tuple

import numpy as np

from repro.errors import RoutingError


def normalize_hop(hop: int, i: int, j: int) -> int:
    """Map the degenerate 'hops' i and j to the canonical direct form j."""
    return j if hop == i or hop == j else hop


def best_one_hop(
    cost_i: np.ndarray, cost_j: np.ndarray, i: int, j: int
) -> Tuple[int, float]:
    """Best one-hop route from ``i`` to ``j`` given both link-state rows.

    This is the computation a rendezvous server performs for each pair of
    its clients (§3). Returns ``(hop, cost)``; ``hop == j`` means the
    direct path. If ``j`` is unreachable even indirectly, returns
    ``(j, inf)``.
    """
    cost_i = np.asarray(cost_i, dtype=float)
    cost_j = np.asarray(cost_j, dtype=float)
    if cost_i.shape != cost_j.shape:
        raise RoutingError("link-state rows must have equal length")
    totals = cost_i + cost_j
    hop = int(np.argmin(totals))
    cost = float(totals[hop])
    if not np.isfinite(cost):
        return j, np.inf
    return normalize_hop(hop, i, j), cost
