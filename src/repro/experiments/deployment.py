"""The §6 "deployment": a 140-node overlay under injected failures.

One run of this experiment produces every measured quantity of Figures 8
and 10-14:

* Figure 8  — CDF over nodes of the mean/max number of concurrent link
  failures (destinations the monitor marks down), sampled each probe
  interval;
* Figure 10 — CDF over nodes of routing traffic: mean bps and the worst
  1-minute window;
* Figure 11 — CDF over nodes of the number of destinations with a double
  rendezvous failure, sampled each minute;
* Figure 12 — route freshness (time since last recommendation) for all
  (src, dst) pairs: median / average / 97th percentile / max;
* Figures 13/14 — the same freshness statistics from one well-connected
  and one poorly-connected node.

The underlay is the synthetic PlanetLab-like topology with calibrated
failure injection (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.cdf import counts_at
from repro.analysis.tables import render_series
from repro.net.failures import NodeClass, assign_node_classes, build_failure_table
from repro.net.trace import planetlab_like
from repro.overlay.config import PROBE_INTERVAL_S, RouterKind
from repro.overlay.harness import Overlay, build_overlay
from repro.overlay.router_quorum import QuorumRouter

__all__ = ["DeploymentResult", "run_deployment", "FRESHNESS_GRID"]

#: The x grid (seconds, log-scale) of Figures 12-14.
FRESHNESS_GRID: Tuple[float, ...] = (1, 2, 4, 8, 15, 30, 60, 120, 240, 480, 960)
#: The x grid (Kbps) of Figure 10.
BANDWIDTH_GRID_KBPS = np.arange(0.0, 20.1, 2.0)


@dataclass
class DeploymentResult:
    """All measurements from one deployment run."""

    n: int
    duration_s: float
    warmup_s: float
    node_classes: List[NodeClass]
    #: (samples, n) concurrent link failures per node (Figure 8).
    concurrent_failures: np.ndarray
    #: (samples, n) destinations with double rendezvous failure (Fig 11).
    double_failures: np.ndarray
    #: per-node mean routing traffic, bits/second (Figure 10 "mean").
    routing_bps_mean: np.ndarray
    #: per-node worst 1-minute routing traffic (Figure 10 "max").
    routing_bps_max_minute: np.ndarray
    #: per-(src, dst) freshness statistics (Figure 12), keys
    #: median/average/p97/max, each (n, n).
    freshness_stats: Dict[str, np.ndarray]
    #: aggregate failover counters summed over nodes.
    counters: Dict[str, int]
    #: §6.2 "evaluation summary": fraction of reachable pairs whose
    #: chosen route is within tolerance of the optimal one-hop on the
    #: end-of-run underlay (dead links excluded).
    route_optimality_fraction: float
    #: fraction of reachable pairs that have *some* working route.
    route_availability_fraction: float

    # ------------------------------------------------------------------
    # Figure 8
    # ------------------------------------------------------------------
    def fig8_mean_per_node(self) -> np.ndarray:
        return self.concurrent_failures.mean(axis=0)

    def fig8_max_per_node(self) -> np.ndarray:
        return self.concurrent_failures.max(axis=0)

    def _count_grid(self) -> np.ndarray:
        """The x grid of Figures 8 and 11: about 14 steps up to ``n``."""
        return np.arange(0, self.n + 1, max(1, self.n // 14))

    def fig8_table(self) -> str:
        grid = self._count_grid()
        series = {
            "nodes_with_mean<=x": counts_at(self.fig8_mean_per_node(), grid),
            "nodes_with_max<=x": counts_at(self.fig8_max_per_node(), grid),
        }
        return render_series(
            "concurrent_link_failures",
            list(grid),
            series,
            title=f"Figure 8 — concurrent link failures per node (n={self.n})",
            fmt="{:.0f}",
        )

    # ------------------------------------------------------------------
    # Figure 10
    # ------------------------------------------------------------------
    def fig10_table(self) -> str:
        grid_kbps = BANDWIDTH_GRID_KBPS
        grid_bps = np.asarray(grid_kbps) * 1000.0
        series = {
            "nodes_with_mean<=x": counts_at(self.routing_bps_mean, grid_bps),
            "nodes_with_max_1min<=x": counts_at(self.routing_bps_max_minute, grid_bps),
        }
        return render_series(
            "routing_kbps",
            list(grid_kbps),
            series,
            title=f"Figure 10 — per-node routing traffic CDF (n={self.n})",
            fmt="{:.0f}",
        )

    # ------------------------------------------------------------------
    # Figure 11
    # ------------------------------------------------------------------
    def fig11_mean_per_node(self) -> np.ndarray:
        return self.double_failures.mean(axis=0)

    def fig11_max_per_node(self) -> np.ndarray:
        return self.double_failures.max(axis=0)

    def fig11_table(self) -> str:
        grid = self._count_grid()
        series = {
            "nodes_with_mean<=x": counts_at(self.fig11_mean_per_node(), grid),
            "nodes_with_max<=x": counts_at(self.fig11_max_per_node(), grid),
        }
        return render_series(
            "dsts_with_double_rendezvous_failure",
            list(grid),
            series,
            title=f"Figure 11 — double rendezvous failures per node (n={self.n})",
            fmt="{:.0f}",
        )

    # ------------------------------------------------------------------
    # Figures 12-14
    # ------------------------------------------------------------------
    def _offdiag(self, mat: np.ndarray) -> np.ndarray:
        return mat[~np.eye(self.n, dtype=bool)]

    def fig12_table(self) -> str:
        grid = FRESHNESS_GRID
        series = {
            stat: counts_at(self._offdiag(self.freshness_stats[stat]), grid)
            for stat in ("median", "average", "p97", "max")
        }
        return render_series(
            "age_seconds",
            list(grid),
            series,
            title=(
                "Figure 12 — route freshness for all (src, dst) pairs "
                f"({self.n * (self.n - 1)} pairs; count with age <= x)"
            ),
            fmt="{:.0f}",
        )

    def fig12_typical_median(self) -> float:
        """The paper's "typical path" freshness (median of medians)."""
        return float(np.median(self._offdiag(self.freshness_stats["median"])))

    def well_and_poorly_connected(self) -> Tuple[int, int]:
        """Node indices for Figures 13 (well) and 14 (poorly)."""
        means = self.fig8_mean_per_node()
        return int(np.argmin(means)), int(np.argmax(means))

    def fig13_14_table(self, node: int) -> str:
        grid = FRESHNESS_GRID
        series = {
            stat: counts_at(
                np.delete(self.freshness_stats[stat][node], node), grid
            )
            for stat in ("median", "average", "p97", "max")
        }
        mean_fail = self.fig8_mean_per_node()[node]
        max_fail = self.fig8_max_per_node()[node]
        return render_series(
            "age_seconds",
            list(grid),
            series,
            title=(
                f"Figures 13/14 — freshness to all destinations from node "
                f"{node} (avg {mean_fail:.1f} / max {max_fail:.0f} "
                "concurrent link failures; count of destinations <= x)"
            ),
            fmt="{:.0f}",
        )


def run_deployment(
    n: int = 140,
    duration_s: float = 900.0,
    warmup_s: float = 240.0,
    seed: int = 42,
) -> DeploymentResult:
    """Run the deployment experiment and collect all §6 measurements."""
    rng = np.random.default_rng(seed)
    trace = planetlab_like(n, rng)
    horizon = warmup_s + duration_s + 120.0
    classes = assign_node_classes(n, rng)
    failures = build_failure_table(n, horizon, rng, node_classes=classes)

    overlay = build_overlay(trace=trace, router=RouterKind.QUORUM, rng=rng, failures=failures)

    concurrent_samples: List[np.ndarray] = []
    double_samples: List[np.ndarray] = []
    t_start = warmup_s

    def sample_concurrent() -> None:
        if overlay.sim.now >= t_start:
            concurrent_samples.append(overlay.monitor_down_counts())

    def sample_double() -> None:
        if overlay.sim.now >= t_start:
            double_samples.append(overlay.double_failure_counts())

    overlay.sim.periodic(PROBE_INTERVAL_S, sample_concurrent, phase=29.0)
    overlay.sim.periodic(60.0, sample_double, phase=59.0)

    overlay.run(warmup_s + duration_s)

    t_end = warmup_s + duration_s
    counters: Dict[str, int] = {}
    for node in overlay.nodes:
        router_obj = node.router
        if isinstance(router_obj, QuorumRouter):
            for key, val in router_obj.counters.as_dict().items():
                counters[key] = counters.get(key, 0) + val

    assert overlay.freshness is not None
    freshness_stats = overlay.freshness.per_pair_stats(t0=t_start)

    optimality, availability = _route_effectiveness(overlay)

    return DeploymentResult(
        n=n,
        duration_s=duration_s,
        warmup_s=warmup_s,
        node_classes=classes,
        concurrent_failures=np.stack(concurrent_samples),
        double_failures=np.stack(double_samples),
        routing_bps_mean=overlay.routing_bps(t_start, t_end),
        routing_bps_max_minute=overlay.max_minute_routing_bps(t_start, t_end),
        freshness_stats=freshness_stats,
        counters=counters,
        route_optimality_fraction=optimality,
        route_availability_fraction=availability,
    )


def _route_effectiveness(overlay: Overlay, tol_rel: float = 0.10) -> tuple:
    """Measure §6.2's summary claim on the end-of-run underlay.

    For every ordered pair whose optimal one-hop cost is finite on the
    *current* (failure-adjusted) topology, check (a) the chosen route
    works, and (b) its true cost is within ``tol_rel`` of optimal (the
    monitor's EWMA carries a few percent of measurement noise).
    """
    t = overlay.sim.now
    n = overlay.n
    w = np.asarray(overlay.topology.rtt_matrix_ms).copy()
    w[~overlay.topology.up_matrix(t)] = np.inf
    np.fill_diagonal(w, 0.0)
    from repro.core.onehop import best_one_hop_all_pairs

    optimal, _ = best_one_hop_all_pairs(w)
    hops = overlay.route_hops()
    working = 0
    near_optimal = 0
    reachable_pairs = 0
    for i in range(n):
        for j in range(n):
            if i == j or not np.isfinite(optimal[i, j]):
                continue
            reachable_pairs += 1
            h = hops[i, j]
            if h < 0:
                continue
            cost = w[i, j] if h in (i, j) else w[i, h] + w[h, j]
            if np.isfinite(cost):
                working += 1
                if cost <= optimal[i, j] * (1 + tol_rel) + 1.0:
                    near_optimal += 1
    if reachable_pairs == 0:
        return 1.0, 1.0
    return near_optimal / reachable_pairs, working / reachable_pairs
