"""Build an overlay for a fault plan, replay the plan, read convergence.

The churn, coordinator-failover and gossip-membership experiments all
run the same way: a lossless (or uniformly ``loss``-y) PlanetLab-like
underlay from the run's seed, an overlay without the freshness
recorder, the plan's partitions and outages compiled into its failure
table, and :func:`~repro.workloads.faults.replay` to install the plan,
sample disruption and run. :func:`run_plan` is that run;
:func:`view_convergence` is the end-of-run membership check the
failover and gossip suites share.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.net.trace import planetlab_like
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import Overlay, build_overlay
from repro.overlay.membership import MembershipView
from repro.overlay.stats import DisruptionRecorder
from repro.workloads.faults import FaultPlan, replay

__all__ = ["MEASURE_FROM_S", "run_plan", "view_convergence"]

#: Where the failover and gossip suites start measuring availability
#: and plane traffic: past bootstrap (first views, first routes).
MEASURE_FROM_S = 60.0


def run_plan(
    plan: FaultPlan,
    n: int,
    seed: int,
    config: OverlayConfig,
    until_s: float,
    router: RouterKind = RouterKind.QUORUM,
    active_members: Optional[Sequence[int]] = None,
    loss: float = 0.0,
) -> Tuple[Overlay, DisruptionRecorder]:
    """Replay ``plan`` to ``until_s`` on a fresh ``n``-node overlay."""
    rng = np.random.default_rng(seed)
    net = planetlab_like(n, rng, base_loss=loss, lossy_fraction=0.0)
    overlay = build_overlay(
        trace=net,
        router=router,
        rng=rng,
        config=config,
        failures=plan.failure_table(n) if plan.cuts or plan.node_outages else None,
        with_freshness=False,
        active_members=active_members,
    )
    return overlay, replay(overlay, plan, until_s)


def view_convergence(
    overlay: Overlay, view: MembershipView
) -> Tuple[bool, Tuple[int, ...]]:
    """Whether the active nodes hold one view version, and who is missing.

    Converged: every active node holding a view holds the same version
    (the replicated plane packs its epoch in). Missing: active nodes
    absent from ``view`` (the plane's final view) or not started.
    """
    active = sorted(overlay.active)
    held = overlay.view_versions()[active]
    held = held[held >= 0]
    converged = held.size > 0 and int(held.min()) == int(held.max())
    missing = tuple(
        m for m in active if m not in view or not overlay.nodes[m].started
    )
    return converged, missing
