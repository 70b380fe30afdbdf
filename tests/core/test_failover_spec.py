"""Array-backed ``FailoverManager`` vs the §4.1 specification.

The manager keeps its per-destination evidence in ``(n, 2)`` arrays and a
per-server log for adopted failovers only; ``spec_failover.py`` states the
same rules from the paper over plain dicts, one function per rule. Both
are driven through the same hypothesis-generated event sequences and
compared after every step: poll results, adopted failovers, default
pairs, the default pairs' cover times, every ``(server, dst)`` verdict
and the state of the random stream (so the uniform draw is over the same
candidates in the same order).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from failover_state import last_cover, server_failed
from spec_failover import FailoverSpec, listed_mask

from repro.core.failover import FailoverManager
from repro.core.grid import GridQuorum

#: Clock steps: none, sub-interval, a routing interval, and both sides
#: of the remote timeout below.
TIMEOUT_S = 30.0
STEPS_S = (0.0, 0.5, 7.0, 15.0, 29.5, 30.0, 30.5, 45.0)


class Pair:
    """The manager and the specification, fed the same events."""

    def __init__(self, me, seed):
        self.me = me
        self.new_rng = np.random.default_rng(seed)
        self.spec_rng = np.random.default_rng(seed)
        self.new = FailoverManager(
            me, self.new_rng, remote_timeout_s=TIMEOUT_S
        )
        self.spec = FailoverSpec(me, self.spec_rng, TIMEOUT_S)
        self.n = 0

    def set_grid(self, n, now):
        self.n = n
        self.new.set_grid(GridQuorum(list(range(n))), now)
        self.spec.set_grid(GridQuorum(list(range(n))), now)

    def change_view(self, stay, joiners, now):
        """Positions in ``stay`` (me among them) survive, ``joiners`` new
        members are slotted in between them by sorted identity."""
        ids = sorted([(2 * p, p) for p in stay] + [(2 * p - 1, None) for p in joiners])
        old_to_new = np.full(self.n, -1)
        for new, (_, old) in enumerate(ids):
            if old is not None:
                old_to_new[old] = new
        self.n, self.me = len(ids), int(old_to_new[self.me])
        previous = self.new
        self.new = FailoverManager(self.me, self.new_rng, previous.remote_timeout_s)
        self.new.set_grid(GridQuorum(list(range(self.n))), now)
        self.new.carry_over(previous, old_to_new)
        moved_to = {old: int(new) for old, new in enumerate(old_to_new) if new >= 0}
        self.spec.change_view(self.me, GridQuorum(list(range(self.n))), moved_to, now)

    def note(self, server, dsts, now):
        self.new.note_recommendations(server, listed_mask(self.n, dsts), now)
        self.spec.note_recommendations(server, set(dsts), now)

    def adopted_servers(self):
        return sorted({st["active"] for st in self.spec.failover.values()} - {None})

    def poll(self, now, up, alive):
        got = self.new.poll(now, up, lambda d: bool(alive[d]))
        want = self.spec.poll(now, up, lambda d: bool(alive[d]))
        assert got == want  # dataclass equality: every field, sets as sets
        return got

    def check_state(self, now, deep):
        assert self.new_rng.bit_generator.state == self.spec_rng.bit_generator.state
        others = [d for d in range(self.n) if d != self.me]
        for dst in others:
            active = self.spec.failover.get(dst, {}).get("active")
            assert self.new.active_failover(dst) == active
            assert self.new.default_pair(dst) == self.spec.pairs[dst]
        if not deep:
            return
        all_up = np.ones(self.n, dtype=bool)
        for server in range(self.n):
            for dst in others:
                if server in self.spec.pairs[dst]:
                    assert last_cover(self.new, server, dst) == self.spec.covered_at.get(
                        (server, dst)
                    ), (server, dst)
                    want = self.spec.default_failed(server, dst, now, all_up)
                else:
                    want = self.spec.failover_failed(server, dst, now)
                assert server_failed(self.new, server, dst, now, all_up) == want, (
                    server,
                    dst,
                )


@st.composite
def bool_mask(draw, n, few_false):
    """A length-``n`` mask: mostly True with a few holes, or arbitrary."""
    if draw(few_false):
        mask = np.ones(n, dtype=bool)
        holes = draw(st.lists(st.integers(0, n - 1), max_size=4))
        mask[holes] = False
        return mask
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_array_manager_follows_the_spec(data):
    draw = data.draw
    n = draw(st.integers(1, 40), label="n")
    me = draw(st.integers(0, n - 1), label="me")
    pair = Pair(me, draw(st.integers(0, 2**16), label="seed"))
    now = 0.0
    pair.set_grid(n, now)
    node = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 30), label="steps")):
        now += draw(st.sampled_from(STEPS_S), label="dt")
        op = draw(
            st.sampled_from(("note", "note", "note", "poll", "poll", "grid", "view", "view"))
        )
        if op == "note":
            # Bias towards servers whose messages matter: adopted
            # failovers, then anyone (default or not, me included).
            adopted = pair.adopted_servers()
            server = draw(st.sampled_from(adopted) if adopted and draw(st.booleans()) else node)
            if draw(st.booleans()):
                # A near-complete message, the way a live rendezvous sends.
                omitted = set(draw(st.lists(node, max_size=3)))
                dsts = [d for d in range(n) if d not in omitted]
            else:
                # Anything: empty, duplicates, off-default, dst == server.
                dsts = draw(st.lists(node, max_size=n))
            pair.note(server, dsts, now)
        elif op == "poll":
            up = draw(bool_mask(n, st.booleans()), label="up")
            alive = draw(bool_mask(n, st.booleans()), label="alive")
            pair.poll(now, up, alive)
        elif op == "view":
            # A view version: a few leave, a few join anywhere in the order.
            leave = set(draw(st.lists(node, max_size=2), label="leave")) - {pair.me}
            join = draw(st.lists(st.integers(0, n), max_size=2, unique=True), label="join")
            pair.change_view([p for p in range(n) if p not in leave], join, now)
            n = pair.n
            node = st.integers(0, n - 1)
        else:
            pair.set_grid(n, now)
        pair.check_state(now, deep=n <= 9)
    pair.check_state(now, deep=True)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 12, 13, 20, 21, 31, 40])
def test_timeout_only_run_matches(n):
    """No messages at all: every default times out, failovers are
    adopted, time out in turn and are replaced, on every grid shape
    (square, non-square, blank columns)."""
    pair = Pair(me=n // 2, seed=n)
    pair.set_grid(n, 0.0)
    up = np.ones(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    adoptions = 0
    for step in range(8):
        now = 20.0 * step
        adoptions += len(pair.poll(now, up, alive).adopted)
        pair.check_state(now, deep=True)
    assert adoptions > 0 or n <= 3  # no server outside the pair to adopt


@pytest.mark.parametrize("n", [3, 5, 7, 8, 11, 13, 14, 22, 31])
def test_standard_senders_with_one_link_down_match(n):
    """Every node sends what a live rendezvous sends (everyone but
    itself), then each link in turn is down. On grids with blank columns
    a bottom-row node's default pair for ``dst`` can hold ``dst`` itself
    next to a third node; ``dst`` never lists itself, and that silence
    must not count as an omission."""
    grid = GridQuorum(list(range(n)))
    bottom_row = grid.row_of(n - 1)
    for me in {0, *bottom_row}:
        pair = Pair(me, seed=n)
        pair.set_grid(n, 0.0)
        for server in range(n):
            if server != me:
                pair.note(server, [d for d in range(n) if d not in (server, me)], 1.0)
        alive = np.ones(n, dtype=bool)
        for down in range(n):
            up = np.ones(n, dtype=bool)
            up[down] = False
            pair.poll(2.0 + down, up, alive)
            pair.check_state(2.0 + down, deep=False)
