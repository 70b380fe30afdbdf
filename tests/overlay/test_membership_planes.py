"""The contract every membership plane keeps, whatever delivers the view.

One join / leave / crash / reboot-before-expiry script is driven through
``build_overlay`` on each of the four planes; the per-plane suites test
how each plane gets there, this one that they all arrive at the same
place behind :class:`repro.overlay.membership.MembershipPlane`.
"""

import dataclasses

import numpy as np
import pytest

from repro.net.simulator import PeriodicTimer
from repro.net.trace import planetlab_like
from repro.overlay.config import (
    Gossip,
    InBand,
    OutOfBand,
    OverlayConfig,
    Replicated,
    RouterKind,
)
from repro.overlay.harness import build_overlay

VARIANTS = [
    OutOfBand(deltas=True, notify_batch_s=2.0),
    InBand(deltas=True),
    Replicated(coordinators=3, deltas=True, notify_batch_s=2.0),
    Gossip(),
]

PLANE_MODULES = {
    "repro.overlay.membership",
    "repro.overlay.coordination",
    "repro.overlay.gossip",
}


@pytest.fixture(params=VARIANTS, ids=lambda v: type(v).__name__)
def overlay(request):
    """12 nodes, 10 of them bootstrapped, after the shared script."""
    rng = np.random.default_rng(5)
    built = build_overlay(
        trace=planetlab_like(12, rng, base_loss=0.0, lossy_fraction=0.0),
        router=RouterKind.QUORUM,
        rng=rng,
        config=OverlayConfig(membership=request.param, membership_timeout_s=60.0),
        with_freshness=False,
        active_members=range(10),
    )
    sim = built.sim
    sim.schedule_at(20.0, built.join_node, 10)  # first join
    sim.schedule_at(40.0, built.leave_node, 2)  # graceful leave
    sim.schedule_at(60.0, built.fail_node, 5)  # crash ...
    sim.schedule_at(75.0, built.join_node, 5)  # ... and reboot before expiry
    sim.schedule_at(90.0, built.fail_node, 7)  # crash left to expire
    built.run(400.0)
    return built


def test_started_nodes_end_on_one_view(overlay):
    expected = tuple(sorted(overlay.active))
    assert expected == (0, 1, 3, 4, 5, 6, 8, 9, 10)
    assert all(overlay.nodes[i].started for i in expected)
    versions = overlay.view_versions()
    assert len({int(versions[i]) for i in expected}) == 1
    assert int(versions[expected[0]]) >= 0
    for i in expected:
        assert overlay.nodes[i].router.view.members == expected
    assert overlay.membership.view.members == expected


def test_is_member_agrees_with_the_active_set(overlay):
    for i in range(overlay.n):
        assert overlay.membership.is_member(i) == (i in overlay.active), i


def test_counters_are_a_flat_dict_of_ints(overlay):
    counters = overlay.membership.counters()
    assert counters and isinstance(counters, dict)
    assert all(type(k) is str and type(v) is int for k, v in counters.items())


def _owner_module(fn) -> str:
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, PeriodicTimer):
        return _owner_module(owner._fn)
    return type(owner).__module__ if owner is not None else fn.__module__


def test_quiesce_leaves_no_membership_timer_armed(overlay):
    def armed():
        return [
            event.fn
            for _, _, event in overlay.sim._queue
            if not event.cancelled and _owner_module(event.fn) in PLANE_MODULES
        ]

    assert armed(), "the plane should have had timers to stop"
    overlay.membership.quiesce()
    assert armed() == []


@pytest.mark.parametrize(
    "flat_keyword",
    [
        "membership_mode",
        "membership_in_band",
        "num_coordinators",
        "membership_deltas",
        "membership_notify_batch_s",
        "membership_expiry_grace",
        "membership_failover_timeout_s",
        "membership_retry_base_s",
        "membership_retry_max_s",
        "membership_retry_jitter",
        "coordinator_heartbeat_s",
        "coordinator_promote_timeout_s",
        "gossip_interval_s",
        "gossip_fanout",
        "gossip_log_ops",
    ],
)
def test_plane_tunables_live_on_the_variant_only(flat_keyword):
    # The flat fields could be combined illegally (replicas without the
    # wire, gossip with coordinators); there is no alias path to them.
    with pytest.raises(TypeError):
        OverlayConfig(**{flat_keyword: 1})


def test_a_variant_carries_only_its_own_planes_tunables():
    assert len(dataclasses.fields(OverlayConfig)) == 4
    for variant in (OutOfBand, InBand, Replicated):
        assert not hasattr(variant(), "fanout")
    assert not hasattr(Gossip(), "coordinators")
    assert not hasattr(OutOfBand(), "expiry_grace")
