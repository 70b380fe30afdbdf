"""The plane's one-pass bootstrap against per-op seeding with deque logs.

:meth:`GossipMembershipPlane.bootstrap` seeds every engine from one
shared resolution and gives each engine list op logs that start from the
plane's shared one-entry prefix. ``reference_gossip.DequeLogEngine`` is
the engine seeded one join op at a time with ``deque(maxlen=LOG_OPS)``
logs. After a bootstrap the two agree on every engine's state, its
derivations and every range its logs serve; after any sequence of ops,
snapshots and heartbeat merges on one engine they still agree, and no
other engine, nor the shared prefix, has moved.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import GossipDigest, GossipOps, GossipPull, GossipSnapshot
from repro.net.simulator import Simulator
from repro.overlay import gossip
from repro.overlay.gossip import OP_EXPIRE, OP_JOIN, OP_LEAVE, packed_view_version

from gossip_state import StubNode, StubTransport, stub_plane  # tests/overlay
from reference_gossip import DequeLogEngine  # tests/overlay

BOOT_AT_S = 3.5


def oracle_plane(n, members, rng_seed=0):
    """``n`` oracle engines seeded op by op, activated and installed in
    the plane's order, with the rngs the plane's ``attach`` draws."""
    sim = Simulator()
    sim.run_until(BOOT_AT_S)
    transport = StubTransport()
    rng = np.random.default_rng(rng_seed)
    engines = [
        DequeLogEngine(
            StubNode(sim, i), transport, 30.0, np.random.default_rng(rng.integers(2**63))
        )
        for i in range(n)
    ]
    member_set = set(members)
    for engine in engines:
        engine.seed_bootstrap(sorted(member_set))
        if engine.me in member_set:
            engine.active = True
            engine._maybe_install()
    return engines, transport


def plane_engines(n, members, rng_seed=0):
    sim = Simulator()
    sim.run_until(BOOT_AT_S)
    transport = StubTransport()
    plane, _ = stub_plane(sim, n, members, transport, rng_seed)
    return [plane.engines[i] for i in range(n)], transport


def served_ranges(engine):
    """Every range ``have+1 .. vv[origin]`` the engine's logs can serve
    (None where they no longer cover it), for every origin it knows."""
    return {
        (origin, have): engine._collect_range(origin, have, top)
        for origin, top in sorted(engine.vv.items())
        for have in range(top + 1)
    }


def assert_same_engine(engine, oracle):
    assert engine.me == oracle.me and engine.active == oracle.active
    assert engine.vv == oracle.vv
    assert engine.records == oracle.records
    assert engine.hb == oracle.hb
    assert engine.last_advance == oracle.last_advance
    assert engine.pending == oracle.pending
    assert engine.alive_members() == oracle.alive_members()
    assert engine._dead_targets() == oracle._dead_targets()
    assert engine._vv_items() == oracle._vv_items()
    assert engine.view_version() == oracle.view_version()
    assert served_ranges(engine) == served_ranges(oracle)
    view, expected = engine.node.router.view, oracle.node.router.view
    assert (view is None) == (expected is None)
    if view is not None:
        assert (view.version, view.members) == (expected.version, expected.members)


MEMBER_SETS = [range(n) for n in (*range(1, 10), 63, 64, 65)]


class TestBootstrapEqualsPerOpSeeding:
    @pytest.mark.parametrize("members", MEMBER_SETS, ids=lambda m: f"n{len(m)}")
    def test_every_engine_equals_the_oracle(self, members):
        n = len(members)
        engines, _ = plane_engines(n, members)
        oracles, _ = oracle_plane(n, members)
        for engine, oracle in zip(engines, oracles):
            assert_same_engine(engine, oracle)
            assert engine.last_advance == dict.fromkeys(members, BOOT_AT_S)

    def test_engines_outside_a_strict_subset_are_seeded_too(self):
        members = (1, 2, 5, 8, 9)
        engines, _ = plane_engines(11, members)
        oracles, _ = oracle_plane(11, members)
        for engine, oracle in zip(engines, oracles):
            assert_same_engine(engine, oracle)
        outside = [e for e in engines if e.me not in members]
        assert outside and all(not e.active and e.node.router.view is None for e in outside)
        assert all(e.alive_members() == members for e in engines)

    def test_one_resolution_is_shared_by_every_engine(self):
        engines, _ = plane_engines(12, range(10))
        first = engines[0]
        for engine in engines[1:]:
            assert engine.seed_logs is first.seed_logs
            assert engine._vv_items() is first._vv_items()
            assert engine.alive_members() is first.alive_members()
            for mutable in ("vv", "records", "hb", "last_advance", "logs"):
                assert getattr(engine, mutable) is not getattr(first, mutable), mutable
            for target, record in engine.records.items():
                assert record is first.records[target]
        assert all(not engine.logs for engine in engines)
        assert first.view_version() == packed_view_version(dict.fromkeys(range(10), 1))


K = 5
MEMBERS = range(K - 1)
ORIGINS = st.integers(0, K + 1)
ACTIONS = st.sampled_from((OP_JOIN, OP_LEAVE, OP_EXPIRE))
SEQS = st.integers(0, 12)

STEPS = st.one_of(
    # An op from a peer: the origin's next seq, or one past it (buffered).
    st.tuples(st.just("ops"), ORIGINS, st.integers(1, 2), ACTIONS, ORIGINS, st.integers(1, 4)),
    st.tuples(st.just("originate"), ACTIONS, ORIGINS, st.integers(1, 4)),
    st.tuples(
        st.just("snapshot"),
        st.dictionaries(ORIGINS, SEQS, max_size=3),
        st.dictionaries(ORIGINS, st.tuples(st.integers(1, 5), ACTIONS, ORIGINS), max_size=3),
    ),
    st.tuples(st.just("beats"), st.dictionaries(ORIGINS, st.integers(0, 9), max_size=4)),
    st.tuples(st.just("pull"), st.dictionaries(ORIGINS, SEQS, min_size=1, max_size=3)),
    st.tuples(st.just("digest"), st.dictionaries(ORIGINS, SEQS, max_size=4)),
    st.tuples(st.just("tick")),
)


def drive(engine, step, sender):
    """Deliver one drawn step to ``engine`` (``sender`` is the peer)."""
    kind = step[0]
    if kind == "ops":
        _, origin, ahead, action, target, stamp = step
        seq = engine.vv.get(origin, 0) + ahead
        engine.on_message(
            GossipOps(origin=sender, ops=((origin, seq, action, target, stamp),)), sender
        )
    elif kind == "originate":
        engine.originate(*step[1:])
    elif kind == "snapshot":
        _, vv, records = step
        engine.on_message(
            GossipSnapshot(
                origin=sender,
                vv=tuple(sorted(vv.items())),
                records=tuple(
                    (target, stamp, action, op_origin)
                    for target, (stamp, action, op_origin) in sorted(records.items())
                ),
            ),
            sender,
        )
    elif kind == "beats":
        beats = tuple(sorted(step[1].items()))
        engine.on_message(
            GossipDigest(origin=sender, vv=engine._vv_items(), heartbeats=beats), sender
        )
    elif kind == "pull":
        engine.on_message(GossipPull(origin=sender, ranges=tuple(sorted(step[1].items()))), sender)
    elif kind == "digest":
        engine.on_message(
            GossipDigest(origin=sender, vv=tuple(sorted(step[1].items())), heartbeats=()), sender
        )
    else:
        engine._gossip_tick()


def frozen_state(engine):
    """A deep, comparable copy of everything an engine holds."""
    return (
        dict(engine.vv),
        dict(engine.records),
        dict(engine.hb),
        dict(engine.last_advance),
        dict(engine.pending),
        {origin: tuple(log) for origin, log in engine.logs.items()},
        {origin: tuple(log) for origin, log in engine.seed_logs.items()},
        (engine._alive, engine._dead, engine._vv_sorted, engine._version),
        engine.active,
    )


class TestLogAliasing:
    @settings(max_examples=200, deadline=None)
    @given(
        who=st.integers(0, K - 1),
        steps=st.lists(st.tuples(STEPS, st.integers(0, K - 1)), max_size=40),
    )
    def test_one_engine_moves_alone_and_serves_what_deques_serve(self, who, steps):
        with pytest.MonkeyPatch.context() as patch:
            # Four-op logs: a few appends trim them and copy the prefix.
            patch.setattr(gossip, "LOG_OPS", 4)
            engines, transport = plane_engines(K, MEMBERS)
            oracles, oracle_transport = oracle_plane(K, MEMBERS)
            prefix = engines[0].seed_logs
            before_prefix = {origin: tuple(log) for origin, log in prefix.items()}
            others = {e.me: frozen_state(e) for e in engines if e.me != who}
            engine, oracle = engines[who], oracles[who]
            for step, sender in steps:
                drive(engine, step, sender)
                drive(oracle, step, sender)
                assert_same_engine(engine, oracle)
                assert transport.sent == oracle_transport.sent
                assert all(len(log) <= 4 for log in engine.logs.values())
            for other in engines:
                if other.me != who:
                    assert frozen_state(other) == others[other.me]
                assert other.seed_logs is prefix
            assert {origin: tuple(log) for origin, log in prefix.items()} == before_prefix

    def test_a_trimmed_prefix_serves_none_like_the_deque(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gossip, "LOG_OPS", 4)
            engines, _ = plane_engines(3, range(3))
            oracles, _ = oracle_plane(3, range(3))
            for engine in (engines[0], oracles[0]):
                for seq in range(2, 7):
                    engine._apply_op(1, seq, OP_JOIN, 1, seq)
            assert engines[0]._collect_range(1, 0, 6) is None
            assert engines[0]._collect_range(1, 2, 6) == oracles[0]._collect_range(1, 2, 6)
            assert engines[0].logs[1] == list(oracles[0].logs[1])
            assert engines[0].seed_logs[1] == [(1, OP_JOIN, 1, 1)]
            assert engines[1]._collect_range(1, 0, 1) == [(1, 1, OP_JOIN, 1, 1)]
            assert_same_engine(engines[0], oracles[0])
