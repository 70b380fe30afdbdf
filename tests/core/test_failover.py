"""Unit tests for the §4.1 failover state machine."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from failover_state import last_cover, server_failed
from reference_failover import carried_evidence, default_pairs, slots_by_server
from spec_failover import listed_mask

from repro.core.failover import FailoverManager, _SizeIndex
from repro.core.grid import GridQuorum
from repro.errors import RoutingError


def make_manager(n=9, me=0, remote_timeout=30.0, seed=1):
    mgr = FailoverManager(
        me, np.random.default_rng(seed), remote_timeout_s=remote_timeout
    )
    mgr.set_grid(GridQuorum(list(range(n))), now=0.0)
    return mgr


def note(mgr, server, dsts, now):
    """One recommendation message from ``server`` listing ``dsts``."""
    mgr.note_recommendations(server, listed_mask(mgr.grid.n, dsts), now)


def up_except(down=(), n=9):
    """The monitor's liveness array with the links in ``down`` failed."""
    up = np.ones(n, dtype=bool)
    up[list(down)] = False
    return up


all_up = up_except()


def never_alive(_):
    return False


def always_alive(_):
    return True


class TestBasics:
    def test_bad_config_rejected(self):
        with pytest.raises(RoutingError):
            FailoverManager(0, np.random.default_rng(0), remote_timeout_s=0.0)

    def test_no_grid_raises(self):
        mgr = FailoverManager(0, np.random.default_rng(0))
        with pytest.raises(RoutingError):
            _ = mgr.grid

    def test_default_pair_lookup(self):
        mgr = make_manager()
        # 3x3 grid 0..8; me=0 at (0,0); dst 8 at (2,2): defaults are the
        # intersections (0,2)=2 and (2,0)=6.
        assert set(mgr.default_pair(8)) == {2, 6}

    def test_grid_must_be_over_view_positions(self):
        mgr = FailoverManager(0, np.random.default_rng(0))
        with pytest.raises(RoutingError, match="view positions"):
            mgr.set_grid(GridQuorum(list(range(1, 10))), now=0.0)
        for grid in (GridQuorum.of_size(9), GridQuorum(list(range(9)))):
            mgr.set_grid(grid, now=0.0)
            assert mgr.grid is grid

    def test_unknown_destination_rejected(self):
        mgr = make_manager()
        with pytest.raises(RoutingError):
            mgr.default_pair(99)


class TestHealthEvaluation:
    def test_all_healthy_no_failovers(self):
        mgr = make_manager()
        poll = mgr.poll(10.0, all_up, always_alive)
        assert poll.double_failures == 0
        assert not poll.adopted
        assert not poll.extra_servers

    def test_proximal_failure_of_one_default_is_tolerated(self):
        mgr = make_manager()
        poll = mgr.poll(10.0, up_except({2}), always_alive)
        # dst 8 keeps its healthy default (6); no failover for it.
        assert mgr.active_failover(8) is None
        # dst 2 itself is unreachable: its same-row defaults are the two
        # endpoints, so §4.1 correctly fails over to another member of
        # dst 2's row/column, which can recommend a detour around the
        # dead direct link.
        assert mgr.active_failover(2) in set(mgr.grid.failover_candidates(2))

    def test_double_proximal_failure_triggers_failover(self):
        mgr = make_manager()
        # Both defaults for dst 8 down.
        poll = mgr.poll(10.0, up_except({2, 6}), always_alive)
        assert poll.double_failures >= 1
        adopted_dsts = {dst for dst, _ in poll.adopted}
        assert 8 in adopted_dsts
        server = dict(poll.adopted)[8]
        # Failover chosen from dst 8's row+column, excluding the failed
        # defaults and me.
        assert server in set(mgr.grid.failover_candidates(8))
        assert server not in {2, 6, 0}

    def test_remote_timeout_triggers_failover(self):
        mgr = make_manager(remote_timeout=30.0)
        # No recommendations ever received: by t=31 both defaults are
        # remotely failed for every dst.
        poll = mgr.poll(31.0, all_up, always_alive)
        assert poll.double_failures > 0

    def test_coverage_refreshes_health(self):
        mgr = make_manager(remote_timeout=30.0)
        for t in (10.0, 25.0):
            note(mgr, 2, [8], t)
            note(mgr, 6, [8], t)
        poll = mgr.poll(40.0, all_up, always_alive)
        # dst 8 covered recently; other dsts may have failed over but 8
        # must not be double-failed.
        assert mgr.active_failover(8) is None

    def test_affirmative_omission_is_immediate(self):
        mgr = make_manager(remote_timeout=1000.0)
        note(mgr, 2, [8], 5.0)
        note(mgr, 6, [8], 5.0)
        # Both servers now send recs WITHOUT dst 8 -> remote failure even
        # though the timeout is huge.
        note(mgr, 2, [1, 3], 10.0)
        note(mgr, 6, [1, 3], 10.0)
        assert server_failed(mgr, 2, 8, 11.0, all_up)
        assert server_failed(mgr, 6, 8, 11.0, all_up)
        poll = mgr.poll(11.0, all_up, always_alive)
        assert mgr.active_failover(8) is not None

    def test_recovery_reverts_to_defaults(self):
        mgr = make_manager()
        mgr.poll(10.0, up_except({2, 6}), always_alive)
        assert mgr.active_failover(8) is not None
        # Links recover.
        poll = mgr.poll(20.0, all_up, always_alive)
        assert mgr.active_failover(8) is None
        assert 8 not in {d for d, _ in poll.adopted}

    def test_self_as_rendezvous_uses_direct_link(self):
        # me=0, dst=1 share row 0; defaults are {0, 1} themselves.
        mgr = make_manager()
        assert set(mgr.default_pair(1)) == {0, 1}
        # direct link up -> healthy
        assert not server_failed(mgr, 0, 1, 5.0, all_up)
        # direct link down -> self-rendezvous failed
        assert server_failed(mgr, 0, 1, 5.0, up_except({1}))


class TestFailoverLifecycle:
    def test_failed_failover_is_excluded_and_replaced(self):
        mgr = make_manager(remote_timeout=30.0)
        up = up_except({2, 6})
        poll1 = mgr.poll(10.0, up, always_alive)
        first = mgr.active_failover(8)
        assert first is not None
        # The failover sends recs omitting 8 -> it cannot reach 8.
        note(mgr, first, [1, 2, 3], 15.0)
        poll2 = mgr.poll(16.0, up, always_alive)
        second = mgr.active_failover(8)
        assert second is not None and second != first

    def test_death_suppression_after_first_attempt(self):
        mgr = make_manager(remote_timeout=30.0)
        up = up_except({2, 6})
        mgr.poll(10.0, up, never_alive)
        first = mgr.active_failover(8)
        assert first is not None  # initial failover is always allowed
        note(mgr, first, [1], 15.0)  # omits 8
        poll = mgr.poll(16.0, up, never_alive)
        # No further failover: no client sees dst 8 alive.
        assert mgr.active_failover(8) is None
        assert poll.suppressed >= 1

    def test_evidence_of_life_resumes_failover(self):
        mgr = make_manager(remote_timeout=30.0)
        up = up_except({2, 6})
        mgr.poll(10.0, up, never_alive)
        first = mgr.active_failover(8)
        note(mgr, first, [1], 15.0)
        mgr.poll(16.0, up, never_alive)  # suppressed
        poll = mgr.poll(30.0, up, always_alive)  # dst seen alive again
        assert mgr.active_failover(8) is not None

    def test_failover_choice_is_uniformish(self):
        # Across many manager instances with different seeds, the chosen
        # failover for dst 8 should span multiple candidates.
        seen = set()
        for seed in range(20):
            mgr = make_manager(seed=seed)
            mgr.poll(10.0, up_except({2, 6}), always_alive)
            f = mgr.active_failover(8)
            if f is not None:
                seen.add(f)
        assert len(seen) >= 2

    def test_adopted_via_relay_stays_empty(self):
        # Nothing relays: the field is kept only for a reader outside
        # src/ (bench/tracing.py), and every adoption is a direct one.
        mgr = make_manager()
        poll = mgr.poll(10.0, up_except({2, 6}), always_alive)
        assert poll.adopted
        assert poll.adopted_via_relay == []
        poll = mgr.poll(41.0, all_up, always_alive)
        assert poll.adopted
        assert poll.adopted_via_relay == []

    def test_extra_servers_reported_while_active(self):
        mgr = make_manager()
        up = up_except({2, 6})
        mgr.poll(10.0, up, always_alive)
        active = mgr.active_failover(8)
        poll = mgr.poll(12.0, up, always_alive)
        assert active in poll.extra_servers

    def test_cover_predating_adoption_does_not_shorten_the_failovers_timeout(self):
        """An adopted failover's timeout runs from ``max(last cover,
        adoption)``: a server that covered dst long ago gets the same
        full ``remote_timeout_s`` to answer as one that never did."""
        up = up_except({2, 6})
        stale = make_manager(remote_timeout=30.0)
        candidates = [c for c in stale.grid.failover_candidates(8) if c not in (0, 2, 6)]
        for c in candidates:
            note(stale, c, [8], 1.0)  # off-default cover
        for mgr in (stale, make_manager(remote_timeout=30.0)):
            first = dict(mgr.poll(100.0, up, always_alive).adopted)[8]
            assert last_cover(mgr, first, 8) is None
            for t in (100.5, 115.0, 130.0):  # inside the timeout from adoption
                assert not mgr.poll(t, up, always_alive).adopted
                assert mgr.active_failover(8) == first
            # ... and not a moment longer.
            second = dict(mgr.poll(130.5, up, always_alive).adopted)[8]
            assert second != first

    def test_a_cover_at_the_adoptions_own_instant_counts(self):
        """An adopted failover's covers are kept from its adoption on;
        one that arrived at the adoption's own instant, before the poll,
        counts too — even when a later message of that instant left the
        destination out. Keeping only each server's latest message of
        the instant reads the omission after the adoption as "stopped"."""
        up = up_except({2, 6})
        mgr = make_manager(remote_timeout=30.0)
        candidates = [c for c in mgr.grid.failover_candidates(8) if c not in (0, 2, 6)]
        for c in candidates:
            note(mgr, c, [8], 5.0)
            note(mgr, c, [], 5.0)
        first = dict(mgr.poll(5.0, up, always_alive).adopted)[8]
        assert last_cover(mgr, first, 8) == 5.0
        note(mgr, first, [], 5.0)
        assert not server_failed(mgr, first, 8, 5.0, up)
        assert 8 not in dict(mgr.poll(5.0, up, always_alive).adopted)
        assert mgr.active_failover(8) == first
        # Its next message that leaves 8 out is the answer.
        note(mgr, first, [], 6.0)
        assert server_failed(mgr, first, 8, 6.0, up)


class TestRemoteRule:
    """§4.1: k has remotely failed for j when it *stopped* recommending
    j. dst 8's defaults are 2 and 6 (me = 0 on the 3x3 grid)."""

    def test_omission_before_any_cover_is_ignored(self):
        mgr = make_manager(remote_timeout=30.0)
        # Both defaults tick before dst 8's row has reached them.
        for t in (5.0, 20.0):
            note(mgr, 2, [1, 3], t)
            note(mgr, 6, [1, 3], t)
            assert not server_failed(mgr, 2, 8, t, all_up)
            assert not server_failed(mgr, 6, 8, t, all_up)
            poll = mgr.poll(t, all_up, always_alive)
            assert poll.double_failures == 0 and not poll.adopted

    def test_omission_after_a_cover_counts_at_once(self):
        mgr = make_manager(remote_timeout=1000.0)
        for server in (2, 6):
            note(mgr, server, [1, 3], 5.0)  # not yet
            note(mgr, server, [1, 3, 8], 20.0)  # covering
            assert not server_failed(mgr, server, 8, 20.0, all_up)
            note(mgr, server, [1, 3], 35.0)  # stopped
            assert server_failed(mgr, server, 8, 35.0, all_up)
        assert 8 in dict(mgr.poll(35.0, all_up, always_alive).adopted)
        # A later cover clears it.
        note(mgr, 2, [8], 50.0)
        assert not server_failed(mgr, 2, 8, 50.0, all_up)

    def test_never_covering_default_fails_at_the_timeout_not_before(self):
        mgr = make_manager(remote_timeout=30.0)
        mgr.set_grid(mgr.grid, now=10.0)  # installed at t = 10
        for t in (15.0, 30.0):
            note(mgr, 2, [1, 3], t)  # alive, never lists 8
            note(mgr, 6, [8], t)
        assert not server_failed(mgr, 2, 8, 40.0, all_up)
        assert mgr.poll(40.0, all_up, always_alive).double_failures == 0
        assert server_failed(mgr, 2, 8, 40.5, all_up)
        # One failed default is tolerated; both (6 goes quiet) are not.
        assert 8 not in dict(mgr.poll(40.5, all_up, always_alive).adopted)
        assert 8 in dict(mgr.poll(61.0, all_up, always_alive).adopted)

    def test_set_grid_forgets_that_a_server_was_covering(self):
        mgr = make_manager(remote_timeout=1000.0)
        note(mgr, 2, [8], 5.0)
        mgr.set_grid(mgr.grid, now=6.0)
        note(mgr, 2, [1], 7.0)
        assert not server_failed(mgr, 2, 8, 8.0, all_up)

    def test_a_server_never_lists_itself_and_that_is_not_an_omission(self):
        # me = 0, dst 2 share row 0: the pair is (me, dst) and slot 1's
        # server is the destination. It covers others, never itself.
        mgr = make_manager(remote_timeout=1000.0)
        assert set(mgr.default_pair(2)) == {0, 2}
        note(mgr, 2, [1, 2], 5.0)  # a cover, however odd
        note(mgr, 2, [1], 10.0)
        assert not server_failed(mgr, 2, 2, 11.0, all_up)
        mgr.poll(11.0, all_up, always_alive)
        assert mgr.active_failover(2) is None

    def test_adopted_failover_needs_no_prior_cover(self):
        mgr = make_manager(remote_timeout=1000.0)
        up = up_except({2, 6})
        first = dict(mgr.poll(10.0, up, always_alive).adopted)[8]
        assert last_cover(mgr, first, 8) is None
        note(mgr, first, [1, 3], 12.0)  # its answer omits 8
        second = dict(mgr.poll(12.5, up, always_alive).adopted)[8]
        assert second != first


def carried(old, members_before, members_after, now, me_id=0):
    """The manager a view change from ``members_before`` to
    ``members_after`` (sorted ids) leaves behind, as the router builds it."""
    position = {m: i for i, m in enumerate(members_after)}
    old_to_new = np.array([position.get(m, -1) for m in members_before])
    mgr = FailoverManager(position[me_id], np.random.default_rng(1), old.remote_timeout_s)
    mgr.set_grid(GridQuorum(list(range(len(members_after)))), now)
    mgr.carry_over(old, old_to_new)
    return mgr


@st.composite
def view_deltas(draw):
    """A manager holding drawn evidence, and a view change from its view:
    any members but itself depart (a leave and a crash are the same
    delta), joiners are slotted in between survivors by identity."""
    n_old = draw(st.integers(1, 30))
    me = draw(st.integers(0, n_old - 1))
    departed = draw(st.sets(st.integers(0, n_old - 1).filter(lambda p: p != me)))
    joiners = draw(st.lists(st.integers(0, n_old), max_size=8))
    times = st.sampled_from([-np.inf, 0.0, 1.0, 2.5, 4.0])
    old = FailoverManager(me, np.random.default_rng(0))
    old.set_grid(GridQuorum.of_size(n_old), now=float(draw(times.filter(np.isfinite))))
    old._cover[:] = np.reshape(draw(st.lists(times, min_size=2 * n_old, max_size=2 * n_old)), (-1, 2))
    old._heard[:] = draw(st.lists(times, min_size=n_old, max_size=n_old))
    if draw(st.booleans()):  # evidence a previous carry-over wrote
        old._since = np.reshape(draw(st.lists(times, min_size=2 * n_old, max_size=2 * n_old)), (-1, 2))
    ids = sorted(
        [(2 * p, p) for p in range(n_old) if p not in departed]
        + [(2 * q - 1, None) for q in joiners]
    )
    old_to_new = np.full(n_old, -1)
    for new, (_, p) in enumerate(ids):
        if p is not None:
            old_to_new[p] = new
    return old, old_to_new, len(ids)


class TestCarryOver:
    """A view change relabels positions; what a default rendezvous was
    doing for a destination goes with the two members, not the slots."""

    @settings(max_examples=300, deadline=None)
    @given(view_deltas())
    def test_one_gather_per_array_is_the_masked_loop(self, delta):
        old, old_to_new, n = delta
        new = FailoverManager(int(old_to_new[old.me]), np.random.default_rng(0))
        new.set_grid(GridQuorum.of_size(n), now=6.0)
        want = carried_evidence(new, old, old_to_new)
        new.carry_over(old, old_to_new)
        for got, wanted in zip((new._cover, new._since, new._heard), want):
            assert got.shape == wanted.shape and np.array_equal(got, wanted)
        # A later message writes the carried covers.
        assert np.shares_memory(new._cover_flat, new._cover)

    @pytest.mark.parametrize("n_old, departed, joiners", [(21, {5, 13, 17}, [0, 9, 21]), (30, {0, 6, 29}, [3])])
    def test_the_gather_keeps_no_pair_that_stopped_being_a_default(self, n_old, departed, joiners):
        """Hand-made deltas that hold both cases: default pairs of two
        surviving members that the new grid no longer makes one, and
        defaults whose server departed."""
        me = 10
        old = FailoverManager(me, np.random.default_rng(0))
        old.set_grid(GridQuorum.of_size(n_old), now=0.0)
        old._cover[:] = np.arange(2 * n_old).reshape(-1, 2)
        old._since = old._cover - 0.5
        old._heard[:] = np.arange(n_old)
        ids = sorted(
            [(2 * p, p) for p in range(n_old) if p not in departed]
            + [(2 * q - 1, None) for q in joiners]
        )
        old_to_new = np.full(n_old, -1)
        for new_pos, (_, p) in enumerate(ids):
            if p is not None:
                old_to_new[p] = new_pos
        new = FailoverManager(int(old_to_new[me]), np.random.default_rng(0))
        new.set_grid(GridQuorum.of_size(len(ids)), now=6.0)
        before = {
            (int(s), d)
            for d in range(n_old)
            for s in old._pair[d].tolist()
            if s >= 0 and old_to_new[d] >= 0
        }
        now_default = {
            (s, d)
            for s, d in before
            if old_to_new[s] >= 0 and old_to_new[s] in new._pair[old_to_new[d]].tolist()
        }
        assert any(s in departed for s, _ in before)
        assert any(old_to_new[s] >= 0 for s, _ in before - now_default)
        want = carried_evidence(new, old, old_to_new)
        new.carry_over(old, old_to_new)
        for got, wanted in zip((new._cover, new._since, new._heard), want):
            assert np.array_equal(got, wanted)
        # Exactly the pairs that stayed defaults carried their covers.
        assert np.count_nonzero(new._cover > -np.inf) == len(now_default)

    def test_was_covering_holds_across_a_view_change(self):
        old = make_manager(n=21, remote_timeout=1000.0)  # 5 columns, 21..25
        # me = 0; dst 12 at (2, 2): defaults (0, 2) = 2 and (2, 0) = 10.
        assert set(old.default_pair(12)) == {2, 10}
        for server in (2, 10):
            note(old, server, [1, 12], 5.0)
        mgr = carried(old, range(21), range(22), now=6.0)  # 21 joins at the tail
        assert last_cover(mgr, 2, 12) == 5.0
        note(mgr, 2, [1], 7.0)  # stopped
        assert server_failed(mgr, 2, 12, 7.0, up_except(n=22))
        assert not server_failed(mgr, 10, 12, 7.0, up_except(n=22))

    def test_a_pair_the_new_grid_creates_starts_blank(self):
        old = make_manager(n=21, remote_timeout=30.0)
        for server in (2, 10):
            note(old, server, range(1, 21), 5.0)
        mgr = carried(old, range(21), range(22), now=6.0)
        # The joiner, dst 21 at (4, 1): defaults (0, 1) = 1 and (4, 0) = 20.
        assert set(mgr.default_pair(21)) == {1, 20}
        for server in (1, 20):
            assert last_cover(mgr, server, 21) is None
            note(mgr, server, [2], 7.0)
            assert not server_failed(mgr, server, 21, 36.0, up_except(n=22))
            assert server_failed(mgr, server, 21, 36.5, up_except(n=22))

    def test_evidence_follows_the_members_when_positions_shift(self):
        old = make_manager(n=9, remote_timeout=1000.0)
        # me = 0; dst 5 at (1, 2): defaults 2 and 3. Member 4 leaves:
        # 5 moves to position 4 = (1, 1), defaults now 1 and 3.
        assert set(old.default_pair(5)) == {2, 3}
        note(old, 3, [5, 8], 5.0)
        note(old, 2, [5, 8], 5.0)
        after = [0, 1, 2, 3, 5, 6, 7, 8]
        mgr = carried(old, range(9), after, now=6.0)
        assert set(mgr.default_pair(4)) == {1, 3}
        assert last_cover(mgr, 3, 4) == 5.0  # same two members, new slot
        assert last_cover(mgr, 1, 4) is None  # 1 was not 5's rendezvous before
        # 8 -> position 7 = (2, 1): defaults 1 and (2, 0) = member 7; the
        # member that covered it from (2, 0), 6, sits at position 5 now.
        assert set(mgr.default_pair(7)) == {1, 6}
        assert last_cover(mgr, 6, 7) is None

    def test_a_silent_defaults_timeout_does_not_restart(self):
        """Joins faster than the timeout used to keep a default that
        never covers alive for ever."""
        mgr = make_manager(n=21, remote_timeout=30.0)
        size = 21
        for t in (10.0, 20.0, 30.0):  # a view version every 10 s
            note(mgr, 2, [1], t - 1.0)  # up, never lists 12
            mgr = carried(mgr, range(size), range(size + 1), now=t)
            size += 1
        up = up_except(n=size)
        assert not server_failed(mgr, 2, 12, 30.0, up)
        assert server_failed(mgr, 2, 12, 30.5, up)
        # ... while the newest joiner's defaults count from its join.
        assert not server_failed(mgr, 3, 23, 59.0, up)

    def test_adopted_failovers_are_not_carried(self):
        old = make_manager(n=21, remote_timeout=1000.0)
        up = up_except({2, 10}, n=21)
        assert 12 in dict(old.poll(5.0, up, always_alive).adopted)
        mgr = carried(old, range(21), range(22), now=6.0)
        assert mgr.active_failover(12) is None
        assert 12 in dict(mgr.poll(6.0, up_except({2, 10}, n=22), always_alive).adopted)

    @pytest.mark.parametrize("seed", range(20))
    def test_one_time_per_server_says_what_one_omission_per_slot_said(self, seed):
        """An omission used to be a time per ``(server, dst)`` slot that
        every message rewrote (now where it left ``dst`` out, never where
        it listed it) and that moved with the pair across a view change.
        The manager keeps one last-message time per server instead;
        message by message, with a view delta in the middle, every
        default's verdict and the double-failure count are the same."""
        rng = np.random.default_rng(seed)
        members = np.sort(rng.choice(40, size=int(rng.integers(6, 30)), replace=False)).tolist()
        me_id = members[0]
        # A few talkative servers that stay: "stopped" takes two
        # messages from the same one.
        talkers = members[1:5]
        mgr = FailoverManager(0, np.random.default_rng(0), 1e6)
        mgr.set_grid(GridQuorum(list(range(len(members)))), now=0.0)
        slots = {}  # (server id, dst id) -> [last cover, last omission]

        def pairs():
            me = members.index(me_id)
            for dst in range(len(members)):
                for server in mgr.default_pair(dst) if dst != me else ():
                    if server != me:
                        yield server, dst

        now = 0.0
        for step in range(24):
            now += float(rng.choice([0.0, 0.0, 1.0, 15.0]))
            if step == 12:
                stay = [m for m in members[5:] if rng.random() < 0.8]
                joined = [m for m in range(40, 46) if rng.random() < 0.5]
                after = sorted([me_id, *talkers, *stay, *joined])
                mgr = carried(mgr, members, after, now, me_id=me_id)
                members = after
                slots = {
                    key: slots[key]
                    for key in ((members[s], members[d]) for s, d in pairs())
                    if key in slots
                }
            server = members.index(talkers[int(rng.integers(len(talkers)))])
            listed = np.flatnonzero(rng.random(len(members)) < 0.7)
            note(mgr, server, listed, now)
            for s, dst in pairs():
                if s == server:
                    slot = slots.setdefault((members[s], members[dst]), [-np.inf, -np.inf])
                    if dst in listed:
                        slot[:] = now, -np.inf
                    elif dst != server:
                        slot[1] = now
            up = up_except(n=len(members))
            failed = {}
            for s, dst in pairs():
                cover, omitted = slots.get((members[s], members[dst]), (-np.inf, -np.inf))
                failed[s, dst] = bool(omitted > cover > -np.inf)
                assert server_failed(mgr, s, dst, now, up) == failed[s, dst], (step, s, dst)
            both = sum(
                all(failed.get((s, dst), False) for s in mgr.default_pair(dst))
                for dst in range(len(members))
                if members[dst] != me_id
            )
            assert mgr.poll(now, up, always_alive).double_failures == both, step

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_a_lookup_by_member_identity(self, seed):
        """What the carried manager says about every default pair —
        last cover, the verdict now, and when silence runs out (which
        pins the expecting-since time) — is what a dict keyed by the two
        members' identities says, whatever arrays hold it."""
        rng = np.random.default_rng(seed)
        ids = np.sort(rng.choice(40, size=int(rng.integers(4, 30)), replace=False))
        before = ids.tolist()
        stay = [m for m in before[1:] if rng.random() < 0.8]
        joined = [m for m in range(40, 46) if rng.random() < 0.5]
        me_id = before[0]
        after = sorted([me_id, *stay, *joined])
        timeout = 30.0
        old = FailoverManager(0, np.random.default_rng(0), timeout)
        old.set_grid(GridQuorum(list(range(len(before)))), now=3.0)
        # (server id, dst id) -> [last cover, last omission], by identity.
        known = {
            (before[server], before[dst]): [-np.inf, -np.inf]
            for dst in range(1, len(before))
            for server in old.default_pair(dst)
        }
        for server in range(1, len(before)):
            listed = np.flatnonzero(rng.random(len(before)) < 0.5)
            at = float(rng.integers(4, 9))
            note(old, server, listed, at)
            for dst in range(len(before)):
                pair = known.get((before[server], before[dst]))
                if pair is None:
                    continue
                if dst in listed:
                    pair[0] = at
                elif dst != server:  # nobody lists itself: not an omission
                    pair[1] = at
        now = 10.0
        mgr = carried(old, before, after, now=now, me_id=me_id)
        up = up_except(n=len(after))
        me = after.index(me_id)
        for dst in range(len(after)):
            if dst == me:
                continue
            for server in mgr.default_pair(dst):
                if server == me:
                    continue  # own slot: proximal only
                where = (after[server], after[dst])
                cover, omitted = known.get(where, (-np.inf, -np.inf))
                since = 3.0 if where in known else now
                assert last_cover(mgr, server, dst) == (
                    None if cover == -np.inf else cover
                ), where
                stopped = omitted > cover > -np.inf
                assert server_failed(mgr, server, dst, now, up) == stopped, where
                if not stopped:
                    deadline = max(cover, since) + timeout
                    assert not server_failed(mgr, server, dst, deadline, up), where
                    assert server_failed(mgr, server, dst, deadline + 0.5, up), where


def manager_at(n, me):
    mgr = FailoverManager(me, np.random.default_rng(0))
    mgr.set_grid(GridQuorum.of_size(n), now=0.0)
    return mgr


#: Every grid shape: squares, one short row, blank columns, partial
#: bottom rows, and the bench sizes.
TABLE_SIZES = [*range(1, 71), 120, 159, 160, 161, 255, 256]


class TestStateLayout:
    """The manager holds evidence; its default pairs and what the view
    size alone determines are built once per size and shared."""

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_pair_table_rows_are_the_default_pairs(self, n):
        grid = GridQuorum(list(range(n)))
        table = _SizeIndex.of_size(n).pairs
        assert table.dtype == np.int32 and table.shape == (n, n, 2)
        assert not table.flags.writeable
        for me in range(n):
            assert np.array_equal(table[me], default_pairs(grid, me)), me

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_shared_slot_index_inverts_the_default_pairs(self, n):
        grid = GridQuorum(list(range(n)))
        for me in range(n):
            want = slots_by_server(grid, me)
            got = manager_at(n, me)._slots_by_server
            assert sorted(got) == sorted(want), me
            for server, (dsts, flat) in want.items():
                assert got[server][0].dtype == got[server][1].dtype == np.int64
                assert got[server][0].tolist() == dsts.tolist(), (me, server)
                assert got[server][1].tolist() == flat.tolist(), (me, server)

    def test_managers_of_one_size_share_the_index_arrays(self):
        n = 21  # 5 x 5, blank bottom-row cells from column 1 on
        a, b = manager_at(n, 0), FailoverManager(3, np.random.default_rng(0))
        b.set_grid(GridQuorum(list(range(n))), now=0.0)  # a grid of its own
        # Row 0's other servers are slot 0 of their columns for both.
        for server in (1, 2, 4):
            for mine, theirs in zip(a._slots_by_server[server], b._slots_by_server[server]):
                assert mine is theirs, server
        assert a._index is b._index
        assert a._pair.base is b._pair.base is a._index.pairs

    def test_a_manager_holds_twenty_four_bytes_per_destination(self):
        """``_cover`` (16) and ``_heard`` (8) bytes per destination; the
        default pairs are a row of the size's table, and a failover log
        exists only for an adopted server."""
        n, me = 1024, 100
        mgr = manager_at(n, me)
        sent = []  # (server, listed): its clients but itself and me
        for t, server in enumerate(sorted(set(mgr._slots_by_server) - {me})):
            clients = mgr.grid.servers(server, include_self=False)
            sent.append((server, listed_mask(n, [d for d in clients if d != me])))
            mgr.note_recommendations(*sent[-1], 0.1 * t)  # inside the timeout
        assert mgr._off_default == {}
        # Not the manager's: the node's random stream, the grid, the
        # size's index and the receiver's listed masks.
        shared = [mgr._rng, mgr.grid, mgr._index, *(listed for _, listed in sent)]
        shared += [a for slots in mgr._slots_by_server.values() for a in slots]
        seen = {id(obj) for obj in shared}
        held, stack = 0, [mgr]
        while stack:
            obj = stack.pop()
            if isinstance(obj, np.ndarray) and obj.base is None:
                held += obj.nbytes
            for ref in gc.get_referents(obj):
                if id(ref) not in seen and not isinstance(ref, type):
                    seen.add(id(ref))
                    stack.append(ref)
        assert held <= 24 * n
        # Every default that listed a destination covered it.
        for server, listed in sent:
            for dst in np.flatnonzero(listed).tolist():
                if server in mgr.default_pair(dst):
                    assert last_cover(mgr, server, dst) is not None
        # An adoption makes a log for the adopted server, and only that.
        dst = next(d for d in range(n) if d != me and me not in mgr.default_pair(d))
        poll = mgr.poll(10.0, up_except(mgr.default_pair(dst), n=n), always_alive)
        assert dict(poll.adopted)[dst] in mgr._off_default
        assert set(mgr._off_default) == {server for _, server in poll.adopted}
