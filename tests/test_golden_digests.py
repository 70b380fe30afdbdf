"""Pinned output digests of seven small overlay runs.

A performance or design change must leave every simulated quantity
alone. These digests hash what the bench digests hash — the final route
table, the per-node held view versions, bytes per message kind, events
run and the transport's sent/delivered/dropped counts — so byte-identity
is a few-second in-tree check. Provenance: ``_full_mesh`` is what it
was when first recorded at ``059e53a`` (before the datagram plane was
vectorised) and has never moved. The six quorum runs were re-pinned by
the §4.1 re-baseline on top of ``f5af393`` — the commit that made a
rendezvous omission count only from a server that was covering the
destination (no bootstrap or join failover storm; an adopted failover's
timeout anchored on its adoption). Refreshing a node's own row when a
link comes back, which landed on its own later, sends nothing and moved
none of them. The rule's follow-up, which sends link state to adopted
failover servers in sorted order instead of set order, moved
``_in_band_lossy`` alone (on a lossy wire the send order picks which
datagrams the loss draws hit). Carrying default-pair evidence across
view versions (``FailoverManager.carry_over``) then moved the four runs
whose membership plane delivers view deltas —
``_churn_three_coordinators``, ``_out_of_band_deltas_batched``,
``_in_band_lossy``, ``_three_coordinators_crash_restore`` — and neither
static run nor the gossip one. Handing routers views only — a full view
carries state across like a derived one, and a view with the held
member set only retags — moved ``_three_coordinators_crash_restore``
alone: its 14 post-promotion full views that move a node from epoch 1
to 2 with unchanged members used to rebuild blank and now retag, so
adopted failover
servers survive the epoch bump (events 6966 → 7052, ``rec`` 360 656 →
383 416 B; route table and view versions unchanged). A change that
moves a digest on purpose (a protocol fix) re-pins it and says so here.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.coordinator_failover import scenario_config
from repro.experiments.gossip_membership import gossip_config
from repro.net.failures import build_failure_table
from repro.net.trace import planetlab_like
from repro.overlay.config import InBand, OutOfBand, OverlayConfig, RouterKind
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


def _plane_run(
    config: OverlayConfig,
    plan: FaultPlan,
    n: int = 20,
    loss: float = 0.0,
    churn: bool = True,
) -> Overlay:
    """400 s of one membership plane: Poisson churn and/or ``plan``."""
    rng = np.random.default_rng(7)
    active = None
    if churn:
        trace = ChurnTrace.poisson(
            n=n, rate_per_s=0.1, duration_s=400.0, seed=7, warmup_s=30.0
        )
        plan.add_churn(trace)
        active = trace.initial_active
    overlay = build_overlay(
        trace=planetlab_like(n, rng, base_loss=loss, lossy_fraction=0.0),
        router=RouterKind.QUORUM,
        rng=rng,
        config=config,
        with_freshness=False,
        active_members=active,
    )
    plan.install(overlay)
    overlay.run(400.0)
    return overlay


def _out_of_band_deltas_batched() -> Overlay:
    """Callback delivery of batched deltas; expiries and parting notices."""
    return _plane_run(
        OverlayConfig(
            membership=OutOfBand(deltas=True, notify_batch_s=5.0),
            membership_timeout_s=90.0,
        ),
        FaultPlan(),
    )


def _in_band_lossy() -> Overlay:
    """One wire coordinator at 8 % loss: gap repairs, unappliable deltas,
    parting notices, view-triggered starts."""
    return _plane_run(
        OverlayConfig(membership=InBand(deltas=True), membership_timeout_s=90.0),
        FaultPlan(),
        loss=0.08,
    )


def _gossip_crash_expiry_rejoin_leave() -> Overlay:
    """Gossip: a reboot before expiry, a crash that expires and rejoins,
    a graceful leave; 5 % loss so pulls are retried."""
    plan = (
        FaultPlan()
        .fail_node(40.0, 3)
        .fail_node(50.0, 7)
        .join_node(80.0, 7)
        .join_node(260.0, 3)
        .leave_node(300.0, 5)
    )
    return _plane_run(gossip_config(), plan, n=16, loss=0.05, churn=False)


def _three_coordinators_crash_restore() -> Overlay:
    """k = 3 under churn with the primary crashed and later restored:
    promotion, epoch bump, buffered-op replay, readmission."""
    plan = FaultPlan().crash_coordinator(100.0, 0).restore_coordinator(220.0, 0)
    return _plane_run(scenario_config(k=3), plan)


def run_digest(overlay: Overlay) -> str:
    transport = overlay.transport
    parts = {
        "route_hops": hashlib.sha256(overlay.route_hops().tobytes()).hexdigest(),
        "view_versions": hashlib.sha256(overlay.view_versions().tobytes()).hexdigest(),
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
    (_lossy_quorum, "e99ea9480cfa4415dad4002389f57696d03bf07ba4371dc944e439848dfc258b"),
    (_full_mesh, "11ba95490335d31e2c87a31c9c2dc01741ad082310e07d2bb31f95351bb17156"),
    (_churn_three_coordinators, "c3d9d62f273a9d78763babae07fa407d914539bf36309fdf99828637bae0b509"),
    (_out_of_band_deltas_batched, "47ab2b5d42603b3c9553c955dd1d0e76ddac7ff8fb7f00d2c2608e8d438ae9b8"),
    (_in_band_lossy, "7badd98f4793871b469884657bd89a4bbcc17bb099d8d85a6d64e9d143091389"),
    (
        _gossip_crash_expiry_rejoin_leave,
        "1c437abd5b58cbffc392073074c4b34796aaac50b1a6c084e3c6fd2d9e3cce62",
    ),
    (
        _three_coordinators_crash_restore,
        "569f11048d4f33e8f3835969426d4b9d561b81b891a772436f047ab60add3fe9",
    ),
]


@pytest.mark.parametrize("build,expected", GOLDEN, ids=lambda v: getattr(v, "__name__", None))
def test_run_digest_is_pinned(build, expected):
    assert run_digest(build()) == expected
