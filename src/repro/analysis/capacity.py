"""Capacity planning: the paper's §1 headline arithmetic.

* A RON with 56 Kbps of probing+routing budget and 30-second failover
  supports ~165 nodes; with the quorum algorithm, ~300 ("nearly twice").
* An overlay on all 416 PlanetLab sites would consume 307 Kbps per node
  with full-mesh routing but 86 Kbps with the quorum algorithm.
* A 10,000-node latency-optimization overlay (the Skype scenario, §2),
  with both algorithms run at the *same* routing interval because rapid
  failover is not the goal, sees a ~50x reduction in per-node routing
  communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.bandwidth import (
    fullmesh_routing_bps,
    probing_bps,
    quorum_routing_bps,
    total_bps,
)
from repro.errors import ConfigError
from repro.overlay.config import RouterKind

__all__ = [
    "max_overlay_size",
    "CapacityComparison",
    "capacity_at_budget",
    "planetlab_sites_comparison",
    "skype_scenario_reduction",
]


def max_overlay_size(budget_bps: float, kind: RouterKind, n_max: int = 1_000_000) -> int:
    """Largest ``n`` whose probing+routing traffic fits ``budget_bps``.

    Monotone bisection over the closed-form total.
    """
    if budget_bps <= 0:
        raise ConfigError("budget must be positive")
    if total_bps(2, kind) > budget_bps:
        return 0
    lo, hi = 2, n_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if total_bps(mid, kind) <= budget_bps:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class CapacityComparison:
    """Side-by-side capacity of the two algorithms under one budget."""

    budget_bps: float
    fullmesh_nodes: int
    quorum_nodes: int

    @property
    def improvement(self) -> float:
        if self.fullmesh_nodes == 0:
            return float("inf")
        return self.quorum_nodes / self.fullmesh_nodes


def capacity_at_budget(budget_bps: float = 56_000.0) -> CapacityComparison:
    """The §1 example: 56 Kbps -> 165 nodes (RON) vs ~300 (quorum)."""
    return CapacityComparison(
        budget_bps=budget_bps,
        fullmesh_nodes=max_overlay_size(budget_bps, RouterKind.FULL_MESH),
        quorum_nodes=max_overlay_size(budget_bps, RouterKind.QUORUM),
    )


def planetlab_sites_comparison(n: int = 416) -> Dict[str, float]:
    """Per-node traffic of an overlay on all 416 PlanetLab sites (§1).

    Returns probing/routing/total bps for both algorithms; the paper
    quotes the totals as 307 Kbps (prior systems) vs 86 Kbps (ours).
    """
    probing = probing_bps(n)
    full = fullmesh_routing_bps(n)
    quorum = quorum_routing_bps(n)
    return {
        "n": n,
        "probing_bps": probing,
        "fullmesh_routing_bps": full,
        "quorum_routing_bps": quorum,
        "fullmesh_total_bps": probing + full,
        "quorum_total_bps": probing + quorum,
    }


def skype_scenario_reduction(n: int = 10_000, routing_interval_s: float = 300.0) -> float:
    """§2/§6: the 10,000-node VoIP overlay.

    Latency optimization does not need rapid failover, so both algorithms
    run at the same (long) routing interval; the reduction is then the
    pure algorithmic ratio ~ sqrt(n)/2 ≈ 50 at n = 10,000.
    """
    if n < 4:
        raise ConfigError("scenario needs a real overlay size")
    full = fullmesh_routing_bps(n, routing_interval_s)
    quorum = quorum_routing_bps(n, routing_interval_s)
    return full / quorum
