"""In-band membership: view updates on the overlay wire + reliability.

Covers the tentpole end to end: the coordinator as a transport endpoint
(real ``MembershipUpdate``/``MembershipDelta`` datagrams), refresh
heartbeats piggybacking the held view version, gap detection and repair
(lost delta -> piggyback/nack -> smallest bridging update), coordinator
outage windows, joins landing inside a batching window, the false-expiry
fix ("you are out" notices), and the view-divergence metric.
"""

import numpy as np
import pytest

import reference_wire
from repro.net.packet import LinkStateMessage, MembershipDelta, MembershipRefresh
from repro.net.trace import uniform_random_metric
from repro.overlay import wire
from repro.overlay.config import InBand, OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.linkstate import LinkStateRow
from repro.overlay.stats import MEMBERSHIP_KINDS, DisruptionRecorder
from repro.workloads.faults import FaultPlan


def build_in_band_overlay(
    n,
    active=None,
    failures=None,
    seed=11,
    notify_batch_s=0.0,
):
    config = OverlayConfig(
        membership=InBand(deltas=True, notify_batch_s=notify_batch_s),
        membership_timeout_s=30.0,
    )
    rng = np.random.default_rng(seed)
    trace = uniform_random_metric(n, rng)  # lossless: drops are injected
    return build_overlay(
        trace=trace,
        router=RouterKind.QUORUM,
        rng=rng,
        failures=failures,
        config=config,
        with_freshness=False,
        active_members=active,
    )


class TestWireDelivery:
    def test_view_updates_are_real_wire_messages(self):
        overlay = build_in_band_overlay(8, active=range(7))
        membership = overlay.membership
        assert membership.service.address == 8  # one past the node ids
        sent_before = overlay.transport.sent_count
        overlay.join_node(7)
        overlay.run(5.0)
        # The join was announced with datagrams (a delta per veteran, a
        # full view to the newcomer), not simulator callbacks.
        assert overlay.transport.sent_count > sent_before
        assert membership.stats.get("view_delta_msgs") >= 6
        assert membership.stats.get("view_full_msgs") >= 1
        for i in overlay.active:
            assert overlay.nodes[i].router.view == membership.view
        assert overlay.nodes[7].started
        # Received update bytes were accounted by the transport.
        received = overlay.bandwidth.bytes_per_node(MEMBERSHIP_KINDS, directions=("in",))
        assert received.sum() > 0

    def test_delta_wire_size_matches_codec(self):
        msg = MembershipDelta(
            origin=8, from_version=3, to_version=5, joined=(1, 4), left=(2,)
        )
        payload = reference_wire.encode_view_delta(3, 5, (1, 4), (2,))
        assert msg.wire_size() == wire.HEADER_BYTES + len(payload)
        assert reference_wire.decode_view_delta(payload) == (3, 5, (1, 4), (2,))

    def test_refresh_wire_size(self):
        msg = MembershipRefresh(origin=3, view_version=9)
        assert msg.wire_size() == wire.MEMBERSHIP_REFRESH_BYTES


class TestGapRepair:
    def test_lost_delta_repaired_by_heartbeat_piggyback(self):
        overlay = build_in_band_overlay(8, active=range(7))
        membership = overlay.membership
        overlay.run(1.0)
        # Node 3 loses connectivity exactly while the join delta flies.
        overlay.transport.unregister(3)
        overlay.join_node(7)
        overlay.run(2.0)
        overlay.transport.register(3, overlay.nodes[3].on_message)
        stale = overlay.nodes[3].router.view
        assert stale.version < membership.view.version  # missed the delta
        # The next heartbeat (membership_timeout / 3 = 10 s) piggybacks
        # the stale version; the coordinator detects the gap and re-sends
        # the bridging update.
        overlay.run(10.0)
        assert overlay.nodes[3].router.view == membership.view
        assert membership.stats.get("refresh_repairs") >= 1

    def test_unappliable_delta_triggers_immediate_repair(self):
        overlay = build_in_band_overlay(8, active=range(7))
        membership = overlay.membership
        overlay.run(1.0)
        overlay.transport.unregister(3)
        overlay.join_node(7)  # delta v1 -> v2, lost for node 3
        overlay.run(2.0)
        overlay.transport.register(3, overlay.nodes[3].on_message)
        overlay.leave_node(5)  # delta v2 -> v3: unappliable at node 3
        # Repair must happen via the nack (well before the first
        # heartbeat at t = 10).
        overlay.run(3.0)
        assert overlay.sim.now < 10.0
        assert overlay.nodes[3].membership.dropped_unappliable_deltas == 1
        assert overlay.nodes[3].router.view == membership.view
        assert membership.stats.get("refresh_repairs") >= 1
        # The coalesced bridging delta (or full-view fallback) covered
        # both missed transitions in one update.
        assert overlay.nodes[3].router.view.version == membership.view.version

    def test_coordinator_outage_window_reconverges_after(self):
        # The coordinator shares node 0's links; an outage of that site
        # makes every view update and refresh in the window vanish.
        outage = FaultPlan().node_outage(2.0, 22.0, (0,)).failure_table(8)
        overlay = build_in_band_overlay(8, failures=outage)
        membership = overlay.membership
        overlay.run(3.0)  # inside the outage now
        overlay.leave_node(6)  # published v2 is lost to everyone but host 0
        overlay.run(10.0)  # still inside the outage
        behind = [
            i
            for i in overlay.active
            if overlay.nodes[i].router.view.version < membership.view.version
        ]
        assert behind  # live nodes diverged during the outage
        # After the outage ends, heartbeat piggybacks repair everyone.
        overlay.run(25.0)
        for i in overlay.active:
            assert overlay.nodes[i].router.view == membership.view
        assert membership.stats.get("refresh_repairs") >= len(behind)


class TestBatchingAndLifecycle:
    def test_join_landing_inside_batch_window_starts_on_view(self):
        overlay = build_in_band_overlay(
            10, active=range(9), notify_batch_s=5.0
        )
        overlay.run(1.0)
        overlay.leave_node(4)  # opens a batching window
        overlay.join_node(9)  # lands inside it
        assert not overlay.nodes[9].started  # view not published yet
        overlay.run(10.0)  # window flushed, full view delivered
        assert overlay.nodes[9].started
        assert overlay.nodes[9].router.view == overlay.membership.view
        for i in overlay.active:
            assert overlay.nodes[i].router.view == overlay.membership.view

    def test_reboot_inside_batch_window(self):
        # A crash followed by a rejoin within one batching window nets to
        # no membership change at all — but the rebooted node still needs
        # (and gets) a fresh full view to start from.
        overlay = build_in_band_overlay(8, notify_batch_s=5.0)
        membership = overlay.membership
        overlay.run(1.0)
        v_before = membership.view.version
        overlay.fail_node(2)
        overlay.run(0.5)
        overlay.join_node(2)  # reboot: evict + join inside the window
        overlay.run(15.0)
        assert membership.view.version == v_before  # crash+reboot cancelled out
        assert overlay.nodes[2].started
        assert overlay.nodes[2].router.view == membership.view

    def test_in_flight_expulsion_does_not_cancel_a_rejoin(self):
        # Race: a crashed node expires; its "you are out" notice is in
        # flight when the node reboots and re-registers. The stale
        # notice lands first (FIFO per pair) — it must not cancel the
        # armed start-on-view, or the rebooted node is stranded forever.
        overlay = build_in_band_overlay(6)
        membership = overlay.membership
        overlay.run(15.0)  # last heartbeat at t=10
        overlay.fail_node(4)  # silent crash; expiry sweep at t=60 evicts
        overlay.run(44.0)
        assert membership.is_member(4)  # not yet expired at t=59
        # Rejoin a hair after the expiry sweep at t=60 publishes the
        # eviction — the parting notice is still in flight (one-way
        # delays here are >= 5 ms).
        overlay.sim.schedule_at(60.0001, overlay.join_node, 4)
        overlay.run(60.0)
        assert membership.stats.get("expiries") == 1
        assert overlay.nodes[4].started
        assert overlay.nodes[4].router.view == membership.view
        assert overlay.nodes[4].membership.dropped_stale_full_views >= 1

    def test_routing_message_before_reboot_view_is_dropped(self):
        # Regression: a rebooted node is transport-bound before its new
        # view arrives (it forgot the pre-crash one). A stale-view peer
        # routing to it in that window must be dropped, not crash the
        # run via _require_view().
        overlay = build_in_band_overlay(6)
        overlay.run(1.0)
        overlay.fail_node(1)
        overlay.join_node(1)
        node = overlay.nodes[1]
        assert node.router.view is None  # reboot forgot the old view
        peer_view = overlay.nodes[0].router.view
        n = peer_view.n
        msg = LinkStateMessage(
            origin=0,
            row=LinkStateRow(0, np.full(n, 50.0), np.ones(n, dtype=bool)),
            view_version=peer_view.version,
        )
        node.on_message(msg, 0)  # must not raise
        assert node.router.dropped_stale_view == 1
        overlay.run(10.0)
        assert node.started
        assert node.router.view == overlay.membership.view

    def test_expelled_slow_node_learns_it_is_out_and_stops(self):
        # The false-expiry blind spot, in-band: a live node whose
        # heartbeats stop is expired by the coordinator — and must
        # *learn* that (the parting notice) instead of routing on a
        # stale grid forever.
        overlay = build_in_band_overlay(6)
        membership = overlay.membership
        overlay.run(1.0)
        overlay.nodes[4]._heartbeat_timer.stop()  # heartbeats go silent
        overlay.run(95.0)  # timeout 30 s, expiry sweep every 60 s
        assert not membership.is_member(4)
        assert 4 not in membership.view
        assert membership.stats.get("parting_notices") >= 1
        # The expelled node heard the view that excludes it and stopped.
        assert not overlay.nodes[4].started
        for i in overlay.active:
            if i != 4:
                assert overlay.nodes[i].router.view == membership.view


class TestDivergenceMetric:
    def test_divergence_windows_from_view_samples(self):
        rec = DisruptionRecorder(3)
        live = np.array([True, True, True])
        rec.sample_views(0.0, np.array([1, 1, 1]), live)
        rec.sample_views(5.0, np.array([2, 1, 1]), live)  # divergent
        rec.sample_views(10.0, np.array([2, 2, 1]), live)  # still divergent
        rec.sample_views(15.0, np.array([2, 2, 2]), live)  # reconverged
        rec.sample_views(20.0, np.array([3, 2, 2]), live)  # divergent again
        assert rec.view_divergence_windows() == [(5.0, 15.0)]
        assert rec.open_divergence_since() == 20.0
        summary = rec.view_divergence_summary()
        assert summary["windows"] == 1
        assert summary["total_s"] == 10.0
        assert summary["max_s"] == 10.0
        assert summary["open"] == 1.0
        assert summary["divergent_sample_frac"] == pytest.approx(3 / 5)

    def test_joiner_without_view_counts_as_divergent(self):
        rec = DisruptionRecorder(3)
        live = np.array([True, True, True])
        rec.sample_views(0.0, np.array([2, 2, -1]), live)
        assert rec.open_divergence_since() == 0.0

    def test_dead_nodes_do_not_count(self):
        rec = DisruptionRecorder(3)
        rec.sample_views(
            0.0, np.array([2, 2, -1]), np.array([True, True, False])
        )
        assert rec.open_divergence_since() is None

    def test_disagreement_among_divergent_pairs(self):
        rec = DisruptionRecorder(3)
        live = np.ones(3, dtype=bool)
        ok = np.ones((3, 3), dtype=bool)
        ok[0, 2] = ok[2, 0] = False  # the behind node's routes broke
        rec.sample(0.0, ok, live, versions=np.array([2, 2, 1]))
        summary = rec.view_divergence_summary()
        # Divergent-version pairs: (0,2), (1,2), (2,0), (2,1); broken: 2.
        assert summary["disagreement"] == pytest.approx(0.5)

    def test_overlay_reports_divergence_during_membership_loss(self):
        overlay = build_in_band_overlay(8, active=range(7))
        recorder = overlay.attach_disruption(period_s=1.0)
        overlay.run(1.5)
        overlay.transport.unregister(3)
        overlay.join_node(7)
        overlay.run(3.0)
        overlay.transport.register(3, overlay.nodes[3].on_message)
        overlay.run(20.0)  # heartbeat repairs; divergence window closes
        summary = recorder.view_divergence_summary()
        assert summary["windows"] >= 1
        assert summary["open"] == 0.0
        assert summary["max_s"] <= 15.0  # bounded by the heartbeat cadence
