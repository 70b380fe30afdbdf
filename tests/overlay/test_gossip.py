"""Coordinator-free gossip membership: engine semantics and convergence.

Unit tests drive a single :class:`GossipMembershipNode` against stub
node/transport objects (LWW record resolution, packed view versions,
out-of-order op buffering, expiry dedup, refutation, dead-member
probing, snapshot fallback); the end-to-end tests build a real gossip
overlay and check bootstrap agreement, crash expiry, rejoin with a
fresh incarnation, and graceful leave all converge to a single view
version with no coordinator anywhere.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.packet import GossipDigest, GossipOps, GossipPull, GossipSnapshot
from repro.net.simulator import Simulator
from repro.net.trace import planetlab_like
from repro.overlay import gossip
from repro.overlay.config import Gossip, OverlayConfig, RouterKind
from repro.overlay.gossip import (
    MAX_REPLAY_OPS,
    OP_EXPIRE,
    OP_JOIN,
    OP_LEAVE,
    GossipMembershipNode,
    GossipMembershipPlane,
    _record_key,
    _seed_engines,
    packed_view_version,
)
from repro.overlay.harness import build_overlay

from gossip_state import StubNode, StubTransport  # tests/overlay


def make_engine(node_id=0, seed=0):
    sim = Simulator()
    node = StubNode(sim, node_id)
    transport = StubTransport()
    engine = GossipMembershipNode(node, transport, 30.0, np.random.default_rng(seed))
    engine.active = True
    return engine, node, transport


class TestRecordResolution:
    def test_higher_stamp_wins(self):
        assert _record_key((2, OP_JOIN, 0)) > _record_key((1, OP_EXPIRE, 9))
        assert _record_key((3, OP_LEAVE, 0)) > _record_key((2, OP_JOIN, 5))

    def test_death_beats_join_at_equal_stamp(self):
        # SWIM's rule: refuting a death claim needs a *fresh* incarnation.
        for dead in (OP_LEAVE, OP_EXPIRE):
            assert _record_key((4, dead, 0)) > _record_key((4, OP_JOIN, 9))

    def test_origin_breaks_exact_ties(self):
        assert _record_key((4, OP_JOIN, 2)) > _record_key((4, OP_JOIN, 1))

    def test_merge_record_is_lww(self):
        engine, _, _ = make_engine()
        assert engine._merge_record(7, (1, OP_JOIN, 7))
        assert engine.alive_members() == (7,)
        # A stale join does not resurrect past a same-stamp expiry.
        assert engine._merge_record(7, (1, OP_EXPIRE, 3))
        assert not engine._merge_record(7, (1, OP_JOIN, 7))
        assert engine.alive_members() == ()
        # The refutation incarnation does.
        assert engine._merge_record(7, (2, OP_JOIN, 7))
        assert engine.alive_members() == (7,)


class TestPackedViewVersion:
    def test_equal_vectors_equal_versions(self):
        assert packed_view_version({1: 3, 2: 5}) == packed_view_version({2: 5, 1: 3})

    def test_grows_under_merge(self):
        vv = {}
        last = packed_view_version(vv)
        for origin, seq in [(0, 1), (1, 1), (0, 2), (2, 1)]:
            vv[origin] = seq
            cur = packed_view_version(vv)
            assert cur > last
            last = cur

    def test_same_total_different_vectors_differ(self):
        assert packed_view_version({0: 2, 1: 1}) != packed_view_version({0: 1, 1: 2})


class TestOpApplication:
    def test_out_of_order_ops_buffer_then_drain(self):
        engine, _, _ = make_engine()
        ops = [(5, seq, OP_JOIN, 10 + seq, 1) for seq in (3, 1, 2)]
        engine._on_ops(GossipOps(origin=5, ops=(ops[0],)))
        assert engine.vv.get(5, 0) == 0 and (5, 3) in engine.pending
        engine._on_ops(GossipOps(origin=5, ops=(ops[1], ops[2])))
        assert engine.vv[5] == 3 and not engine.pending
        assert engine.alive_members() == (11, 12, 13)

    def test_duplicate_ops_ignored(self):
        engine, _, _ = make_engine()
        op = (5, 1, OP_JOIN, 9, 1)
        engine._on_ops(GossipOps(origin=5, ops=(op,)))
        before = engine.view_version()
        engine._on_ops(GossipOps(origin=5, ops=(op,)))
        assert engine.view_version() == before

    def test_seed_bootstrap_agrees_across_engines(self):
        a, _, _ = make_engine(node_id=0, seed=1)
        b, _, _ = make_engine(node_id=1, seed=2)
        for engine in (a, b):
            _seed_engines([engine], range(8))
        assert a.view_version() == b.view_version()
        assert a.alive_members() == b.alive_members() == tuple(range(8))


class TestExpiryAndRefutation:
    def test_expiry_originated_once_per_incarnation(self):
        engine, _, _ = make_engine()
        _seed_engines([engine], [0, 1])
        engine.sim.run_until(100.0)  # past membership_timeout_s=30
        assert engine._check_expiries(engine.sim.now)
        assert engine.alive_members() == (0,)
        # Same stalled incarnation never expires twice.
        assert not engine._check_expiries(engine.sim.now)
        assert engine.counters.as_dict()["expiries"] == 1

    def test_refutes_own_death_at_next_stamp(self):
        engine, _, transport = make_engine()
        _seed_engines([engine], [0, 1])
        engine._on_ops(GossipOps(origin=1, ops=((1, 2, OP_EXPIRE, 0, 1),)))
        # The engine re-joined itself at stamp 2 and eagerly pushed it.
        assert engine.records[0] == (2, OP_JOIN, 0)
        assert engine.counters.as_dict()["refutes"] == 1
        pushed = [m for _, _, m in transport.sent if isinstance(m, GossipOps)]
        assert any(op[2] == OP_JOIN and op[3] == 0 for m in pushed for op in m.ops)

    def test_inactive_engine_does_not_refute(self):
        engine, _, _ = make_engine()
        _seed_engines([engine], [0, 1])
        engine.active = False
        engine._on_ops(GossipOps(origin=1, ops=((1, 2, OP_EXPIRE, 0, 1),)))
        assert engine.records[0][1] == OP_EXPIRE


class TestDigestExchange:
    def test_behind_receiver_pulls_missing_ranges(self):
        engine, _, transport = make_engine()
        _seed_engines([engine], [0, 1, 2])
        engine._on_digest(
            GossipDigest(origin=1, vv=((1, 4), (2, 1)), heartbeats=()), src=1
        )
        pulls = [m for _, dst, m in transport.sent if isinstance(m, GossipPull)]
        assert pulls and pulls[0].ranges == ((1, 1),)

    def test_ahead_receiver_pushes_surplus_back(self):
        engine, _, transport = make_engine()
        _seed_engines([engine], [0, 1])
        engine._on_digest(GossipDigest(origin=1, vv=((1, 1),), heartbeats=()), src=1)
        ops = [m for _, dst, m in transport.sent if isinstance(m, GossipOps) and dst == 1]
        assert ops and (0, 1, OP_JOIN, 0, 1) in ops[0].ops

    def test_dead_member_probed_each_round(self):
        engine, _, transport = make_engine()
        _seed_engines([engine], [0, 1])
        engine._on_ops(GossipOps(origin=0, ops=((0, 2, OP_LEAVE, 1, 1),)))
        assert engine._dead_targets() == (1,)
        engine._push_digest()
        digests = [dst for _, dst, m in transport.sent if isinstance(m, GossipDigest)]
        # No live peer remains, but the dead member still gets the digest.
        assert digests == [1]
        assert engine.counters.as_dict()["dead_probes"] == 1

    def test_snapshot_fallback_on_truncated_log(self, monkeypatch):
        monkeypatch.setattr(gossip, "LOG_OPS", 4)
        engine, _, transport = make_engine()
        _seed_engines([engine], [0])
        for seq in range(2, 12):  # own log bounded at 4: early seqs evicted
            engine._apply_op(0, seq, OP_JOIN, 0, seq)
        engine._serve_ranges(((0, 1),), dst=3)
        snaps = [m for _, dst, m in transport.sent if isinstance(m, GossipSnapshot)]
        assert len(snaps) == 1
        assert snaps[0].records == ((0, 11, OP_JOIN, 0),)

    def test_snapshot_fallback_on_oversized_range(self):
        # The log holds the whole range: only its size asks for a snapshot.
        assert gossip.LOG_OPS > MAX_REPLAY_OPS + 1
        engine, _, transport = make_engine()
        _seed_engines([engine], [0])
        for seq in range(2, MAX_REPLAY_OPS + 3):
            engine._apply_op(0, seq, OP_JOIN, 0, seq)
        engine._serve_ranges(((0, 0),), dst=3)
        assert any(isinstance(m, GossipSnapshot) for _, _, m in transport.sent)

    def test_empty_pull_serves_bootstrap_snapshot(self):
        engine, _, transport = make_engine()
        _seed_engines([engine], [0, 1])
        engine._on_pull(GossipPull(origin=5, ranges=()), src=5)
        snaps = [m for _, dst, m in transport.sent if isinstance(m, GossipSnapshot)]
        assert len(snaps) == 1 and snaps[0].vv == ((0, 1), (1, 1))


class TestJoinProtocol:
    def test_join_with_no_seeds_rejected(self):
        engine, _, _ = make_engine()
        _seed_engines([engine], [0])  # only self
        with pytest.raises(ConfigError):
            engine.begin_join()

    def test_snapshot_completes_join_with_fresh_incarnation(self):
        engine, node, transport = make_engine(node_id=2)
        engine.active = False
        _seed_engines([engine], [0, 1])
        engine.begin_join()
        assert any(
            isinstance(m, GossipPull) and m.ranges == ()
            for _, _, m in transport.sent
        )
        engine._on_snapshot(
            GossipSnapshot(
                origin=0,
                vv=((0, 1), (1, 1)),
                records=((0, 1, OP_JOIN, 0), (1, 1, OP_JOIN, 1), (2, 3, OP_LEAVE, 0)),
                heartbeats=((0, 4), (1, 4)),
            )
        )
        # The joiner refreshed its stale tombstone: join at stamp 3+1.
        assert engine.records[2] == (4, OP_JOIN, 2)
        assert engine.active and not engine._joining
        assert node.router.view.members == (0, 1, 2)


def assert_derivations_fresh(engine):
    """The cached derivations equal their from-scratch definitions."""
    records = engine.records
    assert engine.alive_members() == tuple(
        t for t in sorted(records) if records[t][1] == OP_JOIN
    )
    assert engine._dead_targets() == tuple(
        t for t in sorted(records) if t != engine.me and records[t][1] != OP_JOIN
    )
    assert engine._vv_items() == tuple(sorted(engine.vv.items()))
    assert engine.view_version() == packed_view_version(engine.vv)


def run_gossip_schedule(seed, steps=160, k=5):
    """``k`` engines on one clock exchange messages through a bag the
    seeded schedule delivers out of order, twice, or never; the last
    engine starts outside and joins, members leave, rejoin, go silent
    into expiry and refute it, and snapshots are served at will. After
    every step every engine's caches are checked, and every digest whose
    vector equals the receiver's must send nothing and raise no wanted
    sequence."""
    with pytest.MonkeyPatch.context() as patch:
        # Four-op logs so pulls outrun them and snapshots get served.
        patch.setattr(gossip, "LOG_OPS", 4)
        patch.setattr(gossip, "FANOUT", 2)
        return _run_gossip_schedule(seed, steps, k)


def _run_gossip_schedule(seed, steps, k):
    rng = np.random.default_rng(seed)
    sim = Simulator()
    bag = StubTransport()
    engines = [
        GossipMembershipNode(StubNode(sim, i), bag, 30.0, np.random.default_rng(seed * 7 + i))
        for i in range(k)
    ]
    _seed_engines(engines, range(k - 1))
    for engine in engines:
        engine.active = engine.me < k - 1
    equal_digests = 0
    for _ in range(steps):
        roll = rng.random()
        engine = engines[int(rng.integers(k))]
        if roll < 0.45 and bag.sent:
            pick = int(rng.integers(len(bag.sent)))
            _, dst, msg = bag.sent[pick] if rng.random() < 0.2 else bag.sent.pop(pick)
            target = engines[dst]
            if isinstance(msg, GossipDigest) and msg.vv == target._vv_items():
                sent, want = len(bag.sent), dict(target._want_vv)
                target.on_message(msg, msg.origin)
                assert len(bag.sent) == sent and target._want_vv == want
                equal_digests += 1
            else:
                target.on_message(msg, msg.origin)
        elif roll < 0.55 and bag.sent:
            bag.sent.pop(int(rng.integers(len(bag.sent))))  # lost
        elif roll < 0.7:
            if engine.active:
                engine._gossip_tick()  # heartbeat, expiries, digest push
        elif roll < 0.78:
            peer = int(rng.integers(k))
            if peer != engine.me:
                engine._send_snapshot(peer)
        elif roll < 0.84:
            if engine.active and rng.random() < 0.5:
                engine.originate_leave()
            elif not engine.active and not engine._joining:
                if any(m != engine.me for m in engine.alive_members()):
                    engine.begin_join()
        else:
            # Time passes: pull retries fire, silent members go stale.
            sim.run_until(sim.now + float(rng.choice([1.0, 5.0, 40.0])))
        for each in engines:
            assert_derivations_fresh(each)
    return engines, equal_digests


class TestCachedDerivations:
    @pytest.mark.parametrize("seed", range(12))
    def test_caches_equal_their_definitions_under_any_schedule(self, seed):
        run_gossip_schedule(seed)

    def test_the_schedules_cover_every_writer(self):
        seen = {"equal digests": 0}
        for seed in range(12):
            engines, equal_digests = run_gossip_schedule(seed)
            seen["equal digests"] += equal_digests
            for engine in engines:
                for name, count in engine.counters.as_dict().items():
                    seen[name] = seen.get(name, 0) + count
        for name in (
            "joins", "leaves", "expiries", "refutes", "snapshots", "pulls", "equal digests"
        ):
            assert seen.get(name, 0) > 0, name

    def test_an_equal_vector_digest_sends_nothing(self):
        a, _, transport = make_engine(node_id=0)
        b, _, _ = make_engine(node_id=1)
        _seed_engines((a, b), range(4))
        b.hb[1] = 7
        want = dict(a._want_vv)
        a.on_message(
            GossipDigest(origin=1, vv=b._vv_items(), heartbeats=b._hb_items()), src=1
        )
        assert transport.sent == [] and a._want_vv == want
        assert a.hb[1] == 7  # heartbeats still merge
        # One op behind: the receiver pulls exactly that range.
        b.originate(OP_JOIN, 9, 1)
        a.on_message(GossipDigest(origin=1, vv=b._vv_items(), heartbeats=()), src=1)
        pulls = [m for _, _, m in transport.sent if isinstance(m, GossipPull)]
        assert [p.ranges for p in pulls] == [((1, 1),)] and a._want_vv[1] == 2

    def test_a_cached_derivation_is_reused_until_its_source_moves(self):
        engine, _, _ = make_engine()
        _seed_engines([engine], range(3))
        alive, vv = engine.alive_members(), engine._vv_items()
        assert engine.alive_members() is alive and engine._vv_items() is vv
        engine._merge_record(1, (2, OP_JOIN, 1))  # a new stamp, still alive
        assert engine.alive_members() is alive
        engine._merge_record(1, (2, OP_LEAVE, 1))
        assert engine.alive_members() == (0, 2) and engine._dead_targets() == (1,)
        engine._on_snapshot(GossipSnapshot(origin=2, vv=((2, 5),)))
        assert engine._vv_items() == ((0, 1), (1, 1), (2, 5))
        assert engine.view_version() == packed_view_version({0: 1, 1: 1, 2: 5})


def gossip_test_config():
    return OverlayConfig(membership_timeout_s=20.0, membership=Gossip())


def build_gossip_overlay(n=12, seed=11, active_members=None):
    rng = np.random.default_rng(seed)
    return build_overlay(
        trace=planetlab_like(n, rng),
        router=RouterKind.QUORUM,
        rng=rng,
        config=gossip_test_config(),
        with_freshness=False,
        active_members=active_members,
    )


def held_versions(overlay):
    versions = overlay.view_versions()
    return {int(versions[i]) for i in sorted(overlay.active) if versions[i] >= 0}


class TestGossipOverlay:
    @pytest.fixture(autouse=True)
    def two_second_rounds(self, monkeypatch):
        # Ten push rounds per 20 s expiry timeout.
        monkeypatch.setattr(gossip, "PUSH_INTERVAL_S", 2.0)

    def test_bootstrap_converges_without_coordinator(self):
        overlay = build_gossip_overlay()
        assert isinstance(overlay.membership, GossipMembershipPlane)
        overlay.run(30.0)
        assert len(held_versions(overlay)) == 1
        assert overlay.membership.view.members == tuple(range(12))

    def test_crash_expires_then_rejoin_refreshes_incarnation(self):
        overlay = build_gossip_overlay()
        overlay.run(10.0)
        overlay.fail_node(3)
        overlay.run(60.0)  # past timeout + dissemination
        assert 3 not in overlay.membership.view.members
        assert len(held_versions(overlay)) == 1
        overlay.join_node(3)
        overlay.run(60.0)
        assert 3 in overlay.membership.view.members
        assert len(held_versions(overlay)) == 1
        # The rejoin refuted the expiry with a strictly newer incarnation.
        stamps = {
            engine.records[3] for engine in overlay.membership.engines.values()
        }
        assert len(stamps) == 1
        stamp, action, _ = stamps.pop()
        assert action == OP_JOIN and stamp >= 2
        stats = overlay.membership.merged_stats().as_dict()
        assert stats.get("expiries", 0) >= 1 and stats.get("joins", 0) >= 1

    def test_graceful_leave_propagates_without_expiry(self):
        overlay = build_gossip_overlay()
        overlay.run(10.0)
        overlay.leave_node(5)
        overlay.run(30.0)
        assert 5 not in overlay.membership.view.members
        assert len(held_versions(overlay)) == 1
        stats = overlay.membership.merged_stats().as_dict()
        assert stats.get("leaves", 0) == 1

    def test_armed_joiner_completes_via_seed_pull(self):
        overlay = build_gossip_overlay(active_members=range(11))
        overlay.run(10.0)
        overlay.join_node(11)
        overlay.run(40.0)
        assert 11 in overlay.membership.view.members
        assert len(held_versions(overlay)) == 1
