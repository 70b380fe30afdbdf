"""Tests for replicated membership: coordinator failover and epochs."""

import numpy as np
import pytest

from repro.net.packet import (
    CoordinatorReplicate,
    MembershipAck,
    MembershipUpdate,
)
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.trace import planetlab_like
from repro.net.transport import DatagramTransport
from repro.overlay import wire
from repro.overlay.config import InBand, OutOfBand, OverlayConfig, Replicated
from repro.overlay.coordination import (
    ROLE_BACKUP,
    ROLE_DOWN,
    ROLE_PRIMARY,
    CoordinatorGroup,
    claim_beats,
)
from repro.overlay.harness import build_overlay
from repro.overlay.membership import MembershipService, MembershipView


REPLICATED = Replicated(coordinators=3, deltas=True, notify_batch_s=5.0)


def _replicated_config() -> OverlayConfig:
    return OverlayConfig(membership_timeout_s=90.0, membership=REPLICATED)


class StubNode:
    """What a plane's ``bootstrap`` needs of a node."""

    def __init__(self, node_id):
        self.id = node_id

    def on_view(self, update, epoch=0):
        pass


def _converged_epoch_version(overlay):
    versions = overlay.view_versions()
    held = {int(v) for i, v in enumerate(versions) if i in overlay.active}
    assert -1 not in held, "some active node has no view / is not started"
    assert len(held) == 1, f"views diverged: {sorted(held)}"
    packed = held.pop()
    return packed >> 32, packed & 0xFFFFFFFF


class TestClaimBeats:
    def test_higher_epoch_wins(self):
        assert claim_beats(2, 99, 1, 1)
        assert not claim_beats(1, 1, 2, 99)

    def test_equal_epoch_fenced_by_lower_address(self):
        assert claim_beats(2, 10, 2, 11)
        assert not claim_beats(2, 11, 2, 10)

    def test_self_claim_never_beats_itself(self):
        assert not claim_beats(3, 7, 3, 7)


class TestEpochWireCost:
    def test_legacy_epoch_zero_costs_nothing(self):
        legacy = MembershipUpdate(origin=64, version=4, members=(0, 1, 2))
        assert legacy.wire_size() == wire.membership_message_bytes(3)

    def test_replicated_epoch_adds_epoch_field(self):
        tagged = MembershipUpdate(
            origin=64, version=4, members=(0, 1, 2), epoch=2
        )
        assert (
            tagged.wire_size()
            == wire.membership_message_bytes(3) + wire.EPOCH_BYTES
        )

    def test_ack_and_replicate_sizes(self):
        ack = MembershipAck(origin=64, epoch=1, version=3, leader=64)
        assert ack.wire_size() == wire.membership_ack_message_bytes()
        snap = CoordinatorReplicate(
            origin=64, epoch=1, version=3, members=(0, 1)
        )
        assert not snap.is_delta
        assert snap.wire_size() == wire.coordinator_replicate_message_bytes(
            2, 0, 0, delta=False
        )


class TestReadmission:
    def test_replicated_service_readmits_unknown_refresher(self):
        sim = Simulator()
        svc = MembershipService(sim, timeout_s=1000.0)
        svc.adopt(MembershipView(version=3, members=(1, 2)), (), epoch=1)
        svc.handle_refresh(7, 0, held_epoch=0)
        assert svc.is_member(7)
        assert svc.stats.get("readmissions") == 1

    def test_legacy_service_ignores_unknown_refresher(self):
        sim = Simulator()
        svc = MembershipService(sim, timeout_s=1000.0)
        svc.bootstrap({1: lambda v: None, 2: lambda v: None})
        svc.handle_refresh(7, 0)
        assert not svc.is_member(7)
        assert svc.stats.get("refresh_from_nonmember") == 1


class TestExpiryGrace:
    def _service(self, grace: float) -> MembershipService:
        sim = Simulator()
        rng = np.random.default_rng(0)
        transport = DatagramTransport(
            sim,
            Topology.from_trace(planetlab_like(4, rng)),
            np.random.default_rng(1),
        )
        svc = MembershipService(sim, timeout_s=30.0, expiry_grace=grace)
        svc.attach_transport(transport, address=4, host=0)
        svc.bootstrap({i: (lambda v: None) for i in range(4)})
        return svc

    def test_total_silence_does_not_mass_expire_with_grace(self):
        # The whole membership goes quiet (e.g. the coordinator was
        # partitioned): with the grace multiplier nobody is expired at
        # 1-4x the timeout.
        svc = self._service(grace=4.0)
        svc._sim.run_until(80.0)
        assert svc.view.members == (0, 1, 2, 3)

    def test_total_silence_mass_expires_without_grace(self):
        svc = self._service(grace=1.0)
        svc._sim.run_until(80.0)
        assert svc.view.members == ()


class TestCoordinatorGroupUnit:
    def _group(self):
        sim = Simulator()
        rng = np.random.default_rng(0)
        transport = DatagramTransport(
            sim, Topology.from_trace(planetlab_like(6, rng)),
            np.random.default_rng(1),
        )

        def factory() -> MembershipService:
            return MembershipService(sim, timeout_s=1000.0)

        group = CoordinatorGroup(
            sim,
            transport,
            addresses=(6, 7, 8),
            hosts=(0, 2, 4),
            service_factory=factory,
            tunables=Replicated(),
        )
        return sim, group

    def test_initial_roles_and_epoch(self):
        _, group = self._group()
        roles = [c.role for c in group.coordinators]
        assert roles == [ROLE_PRIMARY, ROLE_BACKUP, ROLE_BACKUP]
        group.bootstrap([StubNode(0), StubNode(1)])
        assert group.current_epoch_version() == (1, 1)

    def test_ops_buffered_while_primary_down_replay_on_promotion(self):
        sim, group = self._group()
        group.bootstrap([StubNode(0), StubNode(1)])
        sim.run_until(10.0)
        group.crash_coordinator(0)
        assert group.coordinators[0].role == ROLE_DOWN
        # The plane is down: the join must buffer, not raise or vanish.
        group.join(3, lambda v, e=0: None)
        assert group.merged_stats().get("ops_buffered", 0) == 1
        assert group.is_member(3)  # intent ledger answers while down
        sim.run_until(120.0)
        # A backup promoted, replayed the join, and published it.
        assert group.primary is not None
        assert group.primary.index in (1, 2)
        stats = group.merged_stats()
        assert stats.get("promotions") == 1
        assert stats.get("ops_replayed", 0) >= 1
        assert 3 in group.view
        epoch, _ = group.current_epoch_version()
        assert epoch == 2

    def test_restored_coordinator_resyncs_as_backup(self):
        sim, group = self._group()
        group.bootstrap([StubNode(0)])
        sim.run_until(10.0)
        group.crash_coordinator(0)
        sim.run_until(120.0)
        group.restore_coordinator(0)
        sim.run_until(200.0)
        zero = group.coordinators[0]
        assert zero.role == ROLE_BACKUP
        # Its mirror caught up to the promoted primary's epoch/view.
        assert zero.epoch == group.current_epoch_version()[0]
        assert zero.held_view.members == group.view.members


class TestCrashDuringBootstrapWindow:
    def test_primary_crash_right_after_bootstrap_converges(self):
        # The primary dies before any member has even heartbeated once:
        # detection, promotion, and the ring walk all start from the
        # bootstrap-delivered view alone.
        config = _replicated_config()
        rng = np.random.default_rng(3)
        overlay = build_overlay(trace=planetlab_like(12, rng), rng=rng, config=config)
        overlay.sim.schedule_at(
            1.0, overlay.membership.crash_coordinator, 0
        )
        overlay.run(300.0)
        epoch, _ = _converged_epoch_version(overlay)
        assert epoch == 2
        assert overlay.membership.view.members == tuple(range(12))
        stats = overlay.membership.merged_stats()
        assert stats.get("promotions") == 1

    def test_crash_during_open_batch_window_loses_no_member(self):
        # A join opens the notify_batch_s window; the primary crashes
        # before the flush, destroying the buffered view change. The
        # joiner must still end up a started member (ring walk to the
        # promoted replica + refresh readmission).
        config = _replicated_config()
        joiner = 11
        rng = np.random.default_rng(3)
        overlay = build_overlay(
            trace=planetlab_like(12, rng),
            rng=rng,
            config=config,
            active_members=tuple(range(11)),
        )
        overlay.sim.schedule_at(100.0, overlay.join_node, joiner)
        overlay.sim.schedule_at(
            102.0, overlay.membership.crash_coordinator, 0
        )
        overlay.run(500.0)
        node = overlay.nodes[joiner]
        assert node.started, "joiner lost with the crashed batch window"
        assert joiner in overlay.membership.view
        epoch, _ = _converged_epoch_version(overlay)
        assert epoch == 2
        assert overlay.membership.view.members == tuple(range(12))
        stats = overlay.membership.merged_stats()
        assert stats.get("promotions") == 1
        assert stats.get("readmissions", 0) >= 1


class TestConfigValidation:
    def test_replication_requires_in_band(self):
        # Replica mirroring and failover are wire protocols: the
        # replicated variant *is* an in-band one, and the flat flag that
        # could ask for replicas without the wire no longer exists.
        assert issubclass(Replicated, InBand)
        with pytest.raises(TypeError):
            OverlayConfig(num_coordinators=3)

    def test_a_replicated_plane_has_at_least_two_coordinators(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Replicated(coordinators=1)

    def test_default_is_single_coordinator(self):
        assert type(OverlayConfig().membership) is OutOfBand
