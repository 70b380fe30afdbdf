"""Pinned output digests of three small overlay runs.

A performance change must leave every simulated quantity alone. These
digests were recorded at commit ``059e53a`` (before the datagram plane
was vectorised) and hash what the bench digests hash — the final route
table, bytes per message kind, events run and the transport's
sent/delivered/dropped counts — so byte-identity is a few-second
in-tree check. A change that moves a digest on purpose (a protocol fix)
re-pins it and says so.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.coordinator_failover import scenario_config
from repro.net.failures import build_failure_table
from repro.net.trace import planetlab_like
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import Overlay, build_overlay
from repro.overlay.stats import ALL_KINDS
from repro.workloads.faults import FaultPlan
from repro.workloads.trace import ChurnTrace


def _lossy_quorum() -> Overlay:
    """Default loss plus the Fig. 8 outage process: drops, failover."""
    rng = np.random.default_rng(7)
    trace = planetlab_like(24, rng)
    overlay = build_overlay(
        trace=trace,
        router=RouterKind.QUORUM,
        rng=rng,
        failures=build_failure_table(24, 400.0, rng),
        config=OverlayConfig(),
        with_freshness=False,
    )
    overlay.run(300.0)
    return overlay


def _full_mesh() -> Overlay:
    rng = np.random.default_rng(7)
    overlay = build_overlay(
        trace=planetlab_like(24, rng),
        router=RouterKind.FULL_MESH,
        rng=rng,
        config=OverlayConfig(),
        with_freshness=False,
    )
    overlay.run(300.0)
    return overlay


def _churn_three_coordinators() -> Overlay:
    rng = np.random.default_rng(7)
    churn = ChurnTrace.poisson(
        n=20, rate_per_s=0.1, duration_s=300.0, seed=7, warmup_s=30.0
    )
    plan = FaultPlan().add_churn(churn)
    overlay = build_overlay(
        trace=planetlab_like(20, rng, base_loss=0.0, lossy_fraction=0.0),
        router=RouterKind.QUORUM,
        rng=rng,
        config=scenario_config(k=3),
        with_freshness=False,
        active_members=churn.initial_active,
    )
    plan.install(overlay)
    overlay.run(300.0)
    return overlay


def run_digest(overlay: Overlay) -> str:
    transport = overlay.transport
    parts = {
        "route_hops": hashlib.sha256(overlay.route_hops().tobytes()).hexdigest(),
        "bytes_by_kind": {
            kind: int(overlay.bandwidth.bytes_per_node((kind,)).sum())
            for kind in ALL_KINDS
        },
        "events_run": overlay.sim.events_run,
        "sent": transport.sent_count,
        "delivered": transport.delivered_count,
        "dropped": transport.dropped_count,
    }
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


GOLDEN = [
    (_lossy_quorum, "059f5518786af69d98a9c9248119bb74f2b88015d61d995104ed2996ce5252ad"),
    (_full_mesh, "fda678d8737ca10a9ecd89f5dcc0f4bc3ee8a2b9572879d0ba6cc97947d6d3cd"),
    (_churn_three_coordinators, "5c4acb5c404bc1c30bc190c7fbb2384eadcca92b6a060fd914422cf68d282e54"),
]


@pytest.mark.parametrize("build,expected", GOLDEN, ids=lambda v: getattr(v, "__name__", None))
def test_run_digest_is_pinned(build, expected):
    assert run_digest(build()) == expected
