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
    "best_one_hop_all_pairs",
    "one_hop_totals",
    "best_excluding_top_fraction",
    "validate_cost_matrix",
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


def best_one_hop_all_pairs(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs optimal one-hop routes for cost matrix ``w``.

    Returns ``(costs, hops)``: ``costs[i, j]`` is the optimal one-hop (or
    direct) cost; ``hops[i, j]`` the intermediate (``j`` for direct).
    This is the oracle the distributed protocol must match (Theorem 1).
    """
    return _all_pairs(validate_cost_matrix(w))


def _all_pairs(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The n^3 kernel behind the all-pairs oracle (``w`` validated).

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
