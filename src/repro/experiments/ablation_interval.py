"""Ablation: the routing-interval halving (§4, footnote and §5).

The paper runs the quorum system at r = 15 s — half the full-mesh
interval — because, absent failures, probe data takes *two* routing
intervals to become a recommendation. This ablation runs the quorum
overlay at r = 15 s and r = 30 s and compares route freshness and
bandwidth: halving the interval doubles routing traffic (still far below
full mesh at scale) and halves typical freshness, which is what restores
failover parity with the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.net.trace import planetlab_like
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay

__all__ = ["IntervalAblationRow", "run_interval_ablation", "format_interval_ablation"]

#: The quorum routing intervals compared: the paper's 15 s and double it.
INTERVALS_S: Sequence[float] = (15.0, 30.0)


@dataclass
class IntervalAblationRow:
    routing_interval_s: float
    median_freshness_s: float
    p97_freshness_s: float
    mean_routing_kbps: float


def run_interval_ablation(
    n: int = 49,
    duration_s: float = 360.0,
    warmup_s: float = 120.0,
    seed: int = 23,
) -> List[IntervalAblationRow]:
    """Run the quorum overlay at each routing interval, failure-free."""
    rows = []
    for interval in INTERVALS_S:
        config = OverlayConfig(routing_interval_quorum_s=interval)
        rng = np.random.default_rng(seed)
        trace = planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0)
        overlay = build_overlay(
            trace=trace, router=RouterKind.QUORUM, rng=rng, config=config
        )
        overlay.run(warmup_s + duration_s)

        assert overlay.freshness is not None
        ages = overlay.freshness.ages(t0=warmup_s)
        off = ~np.eye(n, dtype=bool)
        sampled = ages[:, off]
        finite = sampled[np.isfinite(sampled)]
        rows.append(
            IntervalAblationRow(
                routing_interval_s=interval,
                median_freshness_s=float(np.median(finite)),
                p97_freshness_s=float(np.percentile(finite, 97)),
                mean_routing_kbps=float(
                    overlay.routing_bps(warmup_s, warmup_s + duration_s).mean()
                )
                / 1000.0,
            )
        )
    return rows


def format_interval_ablation(rows: Sequence[IntervalAblationRow]) -> str:
    table_rows = [
        [
            f"{r.routing_interval_s:.0f}",
            f"{r.median_freshness_s:.1f}",
            f"{r.p97_freshness_s:.1f}",
            f"{r.mean_routing_kbps:.2f}",
        ]
        for r in rows
    ]
    return render_table(
        ["routing_interval_s", "median_freshness_s", "p97_freshness_s", "routing_kbps"],
        table_rows,
        title="Routing-interval ablation (quorum router, failure-free)",
    )
