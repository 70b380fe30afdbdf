"""Optimal one-hop route computation.

Given two nodes' link-state rows (cost vectors over all nodes), the best
one-hop path ``<i, h, j>`` minimizes ``cost_i[h] + cost_j[h]`` over all
``h`` (§3). Because ``cost_i[i] = 0`` and ``cost_j[j] = 0``, the direct
path appears as ``h = i`` or ``h = j``; we normalize both to ``h = j`` so
"hop equals destination" canonically means "use the direct path", matching
the recommendation wire format.

All functions treat ``inf`` as "unreachable" and are pure numpy, so they
are shared by the routers, the rendezvous recommendation computation, the
Figure 1 analysis, and the property-test oracles.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import RoutingError

__all__ = [
    "best_one_hop",
    "best_one_hop_all_pairs",
    "best_one_hop_asymmetric",
    "best_one_hop_all_pairs_asymmetric",
    "one_hop_totals",
    "best_excluding_top_fraction",
    "validate_cost_matrix",
    "validate_asymmetric_cost_matrix",
]


def validate_cost_matrix(w: np.ndarray) -> np.ndarray:
    """Validate and return a float cost matrix (symmetric, zero diagonal).

    ``inf`` entries (failed links) are allowed; negative costs are not.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise RoutingError("cost matrix must be square")
    if np.any(np.diag(w) != 0):
        raise RoutingError("cost matrix diagonal must be zero")
    finite = w[np.isfinite(w)]
    if finite.size and finite.min() < 0:
        raise RoutingError("cost matrix must be non-negative")
    return w


def _normalize_hop(hop: int, i: int, j: int) -> int:
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
    return _normalize_hop(hop, i, j), cost


def best_one_hop_all_pairs(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs optimal one-hop routes for cost matrix ``w``.

    Returns ``(costs, hops)``: ``costs[i, j]`` is the optimal one-hop (or
    direct) cost; ``hops[i, j]`` the intermediate (``j`` for direct).
    This is the oracle the distributed protocol must match (Theorem 1).
    """
    return _all_pairs(validate_cost_matrix(w))


def _all_pairs(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The n^3 kernel behind both all-pairs oracles (``w`` validated).

    Each source's sums ``totals[j, h] = w[i, h] + w[h, j]`` are reduced
    along contiguous rows of ``wT``; ``argmin`` keeps the first
    minimising ``h``.
    """
    n = w.shape[0]
    idx = np.arange(n)
    wT = np.ascontiguousarray(w.T)
    costs = np.empty_like(w)
    hops = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        totals = w[i][None, :] + wT
        best_h = np.argmin(totals, axis=1)
        costs[i] = totals[idx, best_h]
        hops[i] = best_h
    # Normalize degenerate hops to "direct".
    direct_like = (hops == idx[:, None]) | (hops == idx[None, :])
    hops = np.where(direct_like, np.broadcast_to(idx[None, :], (n, n)), hops)
    np.fill_diagonal(hops, idx)
    np.fill_diagonal(costs, 0.0)
    return costs, hops


def validate_asymmetric_cost_matrix(w: np.ndarray) -> np.ndarray:
    """Validate a directed cost matrix (zero diagonal, non-negative).

    §3's footnote 2: with asymmetric link costs, round 1 transmits both
    directions; the matrix need not be symmetric.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise RoutingError("cost matrix must be square")
    if np.any(np.diag(w) != 0):
        raise RoutingError("cost matrix diagonal must be zero")
    finite = w[np.isfinite(w)]
    if finite.size and finite.min() < 0:
        raise RoutingError("cost matrix must be non-negative")
    return w


def best_one_hop_asymmetric(
    out_row_i: np.ndarray, in_row_j: np.ndarray, i: int, j: int
) -> Tuple[int, float]:
    """Best directed one-hop ``i -> h -> j`` from the rows round 1 ships.

    With asymmetric costs, node ``i`` announces its *outgoing* costs
    ``w[i, .]`` and node ``j`` its *incoming* costs ``w[., j]`` (each node
    measures both directions of its links); their element-wise sum over
    ``h`` is exactly the directed one-hop total.
    """
    out_row_i = np.asarray(out_row_i, dtype=float)
    in_row_j = np.asarray(in_row_j, dtype=float)
    if out_row_i.shape != in_row_j.shape:
        raise RoutingError("link-state rows must have equal length")
    totals = out_row_i + in_row_j
    hop = int(np.argmin(totals))
    cost = float(totals[hop])
    if not np.isfinite(cost):
        return j, np.inf
    return _normalize_hop(hop, i, j), cost


def best_one_hop_all_pairs_asymmetric(
    w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs optimal directed one-hop routes for directed costs."""
    return _all_pairs(validate_asymmetric_cost_matrix(w))


def one_hop_totals(w: np.ndarray, i: int, j: int) -> np.ndarray:
    """Total cost of ``i -> h -> j`` for every candidate ``h``.

    Entries for ``h in (i, j)`` equal the direct cost. Used by the
    Figure 1 "exclude the top x% of one-hop alternatives" analysis.
    """
    w = np.asarray(w, dtype=float)
    return w[i] + w[:, j]


def best_excluding_top_fraction(
    w: np.ndarray, i: int, j: int, exclude_fraction: float
) -> float:
    """Figure 1's counterfactual: drop the best ``exclude_fraction`` of
    one-hop intermediates for pair ``(i, j)`` and return the best total
    RTT still achievable (direct path included as a fallback).

    ``exclude_fraction = 0`` gives the best one-hop path; ``0.5``
    reproduces the "Excluding Top 50% of 1-Hops" curve.
    """
    if not 0.0 <= exclude_fraction < 1.0:
        raise RoutingError(f"exclude_fraction must be in [0, 1), got {exclude_fraction}")
    totals = one_hop_totals(w, i, j)
    candidates = np.delete(totals, [i, j])  # true intermediates only
    k = int(np.floor(exclude_fraction * candidates.size))
    if k >= candidates.size:
        return float(w[i, j])
    best_remaining = float(np.partition(candidates, k)[k])
    return min(float(w[i, j]), best_remaining)
