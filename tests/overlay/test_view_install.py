"""Routers are handed views, through one method.

``RouterBase.on_view_change`` is the only way membership reaches a
router: the first view builds routing state, a view with the held member
set only retags it, and any other view carries what was learned about
the surviving members to their new positions. Whether a plane put the
view on the wire whole or as a delta is therefore a wire format: it may
move the membership plane's own traffic and nothing the routers do.
"""

import collections
import dataclasses
import hashlib

import numpy as np
import pytest
from failover_state import last_cover

from repro.experiments.coordinator_failover import scenario_config
from repro.net.packet import KIND_MEMBERSHIP, KIND_MEMBERSHIP_CTRL
from repro.net.trace import planetlab_like, uniform_random_metric
from repro.net.transport import DatagramTransport
from repro.overlay.config import InBand, OutOfBand, OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.membership import MembershipView
from repro.overlay.stats import ALL_KINDS, MEMBERSHIP_KINDS
from repro.workloads.faults import FaultPlan
from repro.workloads.trace import ChurnTrace

MEMBER_KINDS = (KIND_MEMBERSHIP, KIND_MEMBERSHIP_CTRL)


def _replicated(deltas):
    config = scenario_config(k=3)
    return dataclasses.replace(
        config, membership=dataclasses.replace(config.membership, deltas=deltas)
    )


PLANES = {
    "out_of_band": (
        RouterKind.QUORUM,
        lambda deltas: OverlayConfig(
            membership=OutOfBand(deltas=deltas, notify_batch_s=5.0),
            membership_timeout_s=90.0,
        ),
    ),
    "in_band": (
        RouterKind.QUORUM,
        lambda deltas: OverlayConfig(
            membership=InBand(deltas=deltas), membership_timeout_s=90.0
        ),
    ),
    "replicated_k3": (RouterKind.QUORUM, _replicated),
    "out_of_band_full_mesh": (
        RouterKind.FULL_MESH,
        lambda deltas: OverlayConfig(
            membership=OutOfBand(deltas=deltas), membership_timeout_s=90.0
        ),
    ),
}


def churn_run(router, config, monkeypatch):
    """400 s of Poisson churn at n = 20 on a lossless underlay, seed 7.
    Returns what the run's routers did, and the datagrams the membership
    plane sent by kind (the planes send one datagram at a time)."""
    member_sends = collections.Counter()
    send = DatagramTransport.send

    def counting(self, src, dst, msg):
        if msg.kind in MEMBER_KINDS:
            member_sends[msg.kind] += 1
        return send(self, src, dst, msg)

    monkeypatch.setattr(DatagramTransport, "send", counting)
    rng = np.random.default_rng(7)
    churn = ChurnTrace.poisson(n=20, rate_per_s=0.1, duration_s=400.0, seed=7, warmup_s=30.0)
    ov = build_overlay(
        trace=planetlab_like(20, rng, base_loss=0.0, lossy_fraction=0.0),
        router=router,
        rng=rng,
        config=config,
        with_freshness=False,
        active_members=churn.initial_active,
    )
    FaultPlan().add_churn(churn).install(ov)
    ov.run(400.0)
    transport = ov.transport
    return ov, {
        "route_hops": hashlib.sha256(ov.route_hops().tobytes()).hexdigest(),
        "view_versions": hashlib.sha256(ov.view_versions().tobytes()).hexdigest(),
        "bytes": {
            kind: int(ov.bandwidth.bytes_per_node((kind,)).sum())
            for kind in ALL_KINDS
            if kind not in MEMBER_KINDS
        },
        "routing_datagrams": transport.sent_count - sum(member_sends.values()),
        "dropped": transport.dropped_count,
    }, (ov.sim.events_run, transport.sent_count, transport.delivered_count)


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_the_view_wire_format_moves_only_membership_traffic(plane, monkeypatch):
    """Same churn, ``deltas`` True and False: equal route tables, held
    view versions, probe / link-state / recommendation bytes, routing
    datagrams and drops. Out of band, nothing at all is on the wire for
    membership, so events and every transport count are equal too. On a
    wire plane a delta that arrives after the state it carries is
    unappliable and asks for a repair, where a stale full view is
    dropped silently: that is membership traffic, and only that."""
    router, config = PLANES[plane]
    ov_delta, with_deltas, counts_delta = churn_run(router, config(True), monkeypatch)
    ov_full, with_full_views, counts_full = churn_run(router, config(False), monkeypatch)
    assert with_deltas == with_full_views
    if plane.startswith("out_of_band"):
        assert counts_delta == counts_full
    # The churn really did change the views many times.
    assert max(node.router.view.version for node in ov_full.nodes if node.router.view) > 10
    delta_bytes, full_bytes = (
        ov.bandwidth.bytes_per_node(MEMBERSHIP_KINDS, directions=("in",)).sum()
        for ov in (ov_delta, ov_full)
    )
    assert delta_bytes != full_bytes


def steady_router(kind):
    rng = np.random.default_rng(11)
    ov = build_overlay(
        trace=uniform_random_metric(10, rng), router=kind, rng=rng, with_freshness=False
    )
    ov.run(100.0)
    return ov.nodes[0].router


@pytest.mark.parametrize("kind", [RouterKind.QUORUM, RouterKind.FULL_MESH])
def test_a_view_with_the_held_members_only_retags(kind):
    router = steady_router(kind)
    held = router.view
    table = router.table
    failover = getattr(router, "failover", None)
    router.view_epoch += 1  # a promoted coordinator's full view
    router.on_view_change(MembershipView(version=held.version + 1, members=held.members))
    assert router.view.version == held.version + 1
    assert router.table is table
    if kind is RouterKind.QUORUM:
        assert router.failover is failover


@pytest.mark.parametrize("kind", [RouterKind.QUORUM, RouterKind.FULL_MESH])
def test_a_full_view_without_one_member_keeps_the_survivors_rows(kind):
    router = steady_router(kind)
    held = router.view
    gone = held.members[4]
    old_rows = {
        member: router.table.row(pos)
        for pos, member in enumerate(held.members)
        if router.table.row(pos) is not None and member not in (gone, router.me)
    }
    assert len(old_rows) >= (3 if kind is RouterKind.QUORUM else 8)
    router.on_view_change(
        MembershipView(
            version=held.version + 1,
            members=tuple(m for m in held.members if m != gone),
        )
    )
    assert router.view.n == held.n - 1
    for member, old in old_rows.items():
        row = router.table.row(router.view.index_of(member))
        assert row is not None, member
        keep = [pos for pos, m in enumerate(held.members) if m != gone]
        assert row.latency_ms.tolist() == old.latency_ms[keep].tolist(), member
    if kind is RouterKind.QUORUM:
        # The default pairs the new grid keeps keep their evidence too.
        covers = [
            last_cover(router.failover, server, dst)
            for dst in range(router.view.n)
            if dst != router.me_idx
            for server in router.failover.default_pair(dst)
            if server != router.me_idx
        ]
        assert any(cover is not None for cover in covers)
