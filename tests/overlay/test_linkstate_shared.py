"""Shared immutable rows ≡ per-receiver copies, bit for bit.

The link-state tables hold *references* to the publisher's frozen
``LinkStateRow`` where they used to copy every row into per-table
buffers. ``reference_linkstate.CopyInTable`` is the copying table; the
tests here hold both table names equal to it under arbitrary
interleavings of updates, touches and view remaps, through every reader,
on live routers — and count the row objects a running overlay holds.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_linkstate import CopyInTable

from repro.errors import RoutingError
from repro.net.packet import LinkStateMessage
from repro.net.trace import planetlab_like, uniform_random_metric
from repro.net.transport import DatagramTransport
from repro.overlay.config import OutOfBand, OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.linkstate import LinkStateRow, LinkStateTable, SparseLinkStateTable
from repro.overlay.router_quorum import QuorumRouter

def raw_row(rng, n, idx, tidy):
    """A row as a caller might hand it in. ``tidy`` rows are in the
    monitor's form (dead entries ``inf``, own entry alive and 0); the
    others leave all of that to the row's normalisation."""
    alive = rng.random(n) < 0.8
    latency = rng.uniform(5.0, 400.0, n)
    if tidy:
        alive[idx] = True
        latency[~alive] = np.inf
        latency[idx] = 0.0
    return latency, alive


def both(reader_new, reader_ref):
    """Both answers, or that both refuse (never-received rows, quorum table)."""
    try:
        expected = reader_ref()
    except RoutingError:
        with pytest.raises(RoutingError, match="rows never received"):
            reader_new()
        return None
    return reader_new(), expected


def assert_same_answers(new, ref, now, rng):
    n = new.n
    assert np.array_equal(new.row_time, ref.row_time)
    assert new.held_rows == len(ref.held)
    for max_age in (15.0, 45.0, 1e9):
        assert np.array_equal(new.fresh_rows(now, max_age), ref.fresh_rows(now, max_age))
    for idx in range(n):
        assert new.row_age(idx, now) == ref.row_age(idx, now)
        assert (new.row(idx) is not None) == (idx in ref.held)
        for max_age in (15.0, 45.0):
            assert new.sees_alive(idx, now, max_age) == ref.sees_alive(idx, now, max_age)
        expected = ref.effective_cost(idx)
        assert np.array_equal(new.effective_cost(idx), expected)
        shared = new.cost_row(idx)
        assert np.array_equal(shared, expected)
        assert not shared.flags.writeable
    held = sorted(ref.held)
    for indices in (held, list(range(n)), rng.integers(0, n, size=n + 2).tolist(), []):
        indices = np.array(indices, dtype=np.int64)
        got = both(lambda: new.cost_matrix(indices), lambda: ref.cost_matrix(indices))
        if got is not None:
            assert got[0].dtype == got[1].dtype == np.float64
            assert got[0].shape == got[1].shape
            assert np.array_equal(got[0], got[1])


class TestSharedEqualsCopied:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_reader_under_arbitrary_interleavings(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # One row object per update, installed in both table names, as a
        # publisher's row is installed in every receiver.
        tables = [
            (LinkStateTable(n), CopyInTable(n, strict=False)),
            (SparseLinkStateTable(n), CopyInTable(n, strict=True)),
        ]
        now = 0.0
        for _ in range(data.draw(st.integers(min_value=0, max_value=10), label="ops")):
            now += data.draw(st.floats(min_value=0.0, max_value=40.0), label="dt")
            op = data.draw(st.sampled_from(["update", "update", "touch", "remap"]))
            if op == "update":
                idx = data.draw(st.integers(0, n - 1), label="idx")
                latency, alive = raw_row(rng, n, idx, tidy=data.draw(st.booleans()))
                frozen = data.draw(st.booleans(), label="frozen")
                latency.flags.writeable = alive.flags.writeable = not frozen
                row = LinkStateRow(idx, latency, alive)
                for new, ref in tables:
                    new.update_row(idx, row, now)
                    ref.update_row(idx, latency, alive, now)
                    assert new.row(idx) is row
                if not frozen:  # the caller keeps writing into its arrays
                    latency[:], alive[:] = -1.0, ~alive
            elif op == "touch":
                idx = data.draw(st.integers(0, n - 1), label="idx")
                for new, ref in tables:
                    new.touch_row(idx, now)
                    ref.touch_row(idx, now)
            else:
                old = data.draw(st.sets(st.integers(0, n - 1)), label="survivors")
                n_new = len(old) + data.draw(st.integers(0, 3), label="joined")
                if n_new == 0:
                    continue
                survivors_old = np.array(sorted(old), dtype=np.int64)
                slots = data.draw(st.permutations(range(n_new)), label="slots")
                survivors_new = np.array(slots[: len(old)], dtype=np.int64)
                tables = [
                    (
                        new.remap(survivors_old, survivors_new, n_new),
                        ref.remap(survivors_old, survivors_new, n_new),
                    )
                    for new, ref in tables
                ]
                n = n_new
                assert [type(new) for new, _ in tables] == [LinkStateTable, SparseLinkStateTable]
            for new, ref in tables:
                assert_same_answers(new, ref, now + 10.0, rng)


class TestTableMechanics:
    def test_logical_footprint_is_row_proportional(self):
        n = 512
        quorum, mesh = SparseLinkStateTable(n), LinkStateTable(n)
        rng = np.random.default_rng(0)
        for idx in range(n):
            row = LinkStateRow(idx, *raw_row(rng, n, idx, tidy=True))
            mesh.update_row(idx, row, 0.0)
            if idx < 8:
                quorum.update_row(idx, row, 0.0)
        # nbytes() is what a deployed node would hold, not this process:
        # the 8 shared rows count in both tables.
        assert mesh.nbytes() >= n * n * (8 + 1)
        assert quorum.nbytes() < mesh.nbytes() / 10

    def test_a_shared_row_is_moved_once_per_delta(self):
        n = 6
        row = LinkStateRow(2, *raw_row(np.random.default_rng(1), n, 2, tidy=True))
        a, b, c = SparseLinkStateTable(n), LinkStateTable(n), SparseLinkStateTable(n)
        for table in (a, b, c):
            table.update_row(2, row, 0.0)
        survivors = np.array([0, 1, 2, 4, 5])
        a2 = a.remap(survivors, np.arange(5), 5)
        b2 = b.remap(survivors, np.arange(5), 5)
        assert a2.row(2) is b2.row(2)  # the second holder found it on the row
        assert a2.row(2) is not row
        # Another delta is another row.
        c2 = c.remap(np.array([1, 2, 3]), np.arange(3), 3)
        assert c2.row(1) is not a2.row(2)
        assert np.array_equal(c2.row(1).latency_ms, row.latency_ms[1:4])
        # The row remembers its successor weakly: a holder that is never
        # remapped again does not keep later generations alive.
        moved = weakref.ref(a2.row(2))
        del a2, b2
        gc.collect()
        assert moved() is None

    def test_remap_drops_a_row_no_gather_can_reach_any_more(self):
        n = 6
        rng = np.random.default_rng(2)
        t = SparseLinkStateTable(n)
        for idx, at in ((1, 0.0), (2, 15.0), (4, 55.0)):
            t.update_row(idx, LinkStateRow(idx, *raw_row(rng, n, idx, tidy=True)), at)
        survivors = np.array([0, 1, 2, 4, 5])
        now, max_age = 60.0, 45.0
        # Row 1 is past the window; row 2 is exactly at its edge, fresh.
        assert t.fresh_rows(now, max_age).tolist() == [2, 4]
        kept = t.remap(survivors, np.arange(5), 5, now, max_age)
        assert kept.row(1) is None and kept.held_rows == 2
        assert np.array_equal(kept.row(3).latency_ms, t.row(4).latency_ms[survivors])
        # How old the dropped row was is still known: it cannot read fresh.
        assert kept.row_time.tolist() == [-np.inf, 0.0, 15.0, 55.0, -np.inf]
        assert kept.fresh_rows(now, max_age).tolist() == [2, 3]
        assert kept.nbytes() < t.nbytes()
        # A holder that names no window keeps every survivor's row.
        assert t.remap(survivors, np.arange(5), 5).held_rows == 3

    def test_cost_follows_the_held_row(self):
        n = 6
        t = SparseLinkStateTable(n)
        rng = np.random.default_rng(0)
        t.update_row(2, LinkStateRow(2, *raw_row(rng, n, 2, tidy=True)), 0.0)
        before = t.cost_row(2)
        assert before is t.row(2).latency_ms  # the held row's array, not a copy
        t.update_row(2, LinkStateRow(2, *raw_row(rng, n, 2, tidy=True)), 1.0)
        after = t.cost_row(2)
        assert after is t.row(2).latency_ms
        assert np.array_equal(after, t.effective_cost(2))
        assert not np.array_equal(before, after)

    def test_gathers_match_rows(self):
        n = 10
        t = SparseLinkStateTable(n)
        rng = np.random.default_rng(3)
        for idx in (0, 3, 7):
            t.update_row(idx, LinkStateRow(idx, *raw_row(rng, n, idx, tidy=True)), 0.0)
        held = np.array([0, 3, 7])
        mat = t.cost_matrix(held)
        for pos, idx in enumerate(held):
            assert np.array_equal(mat[pos], t.effective_cost(int(idx)))


class TestRoutesFromReferenceTable:
    """Full ``route_to`` / ``route_vector`` outputs are bitwise-identical
    whether a live router reads shared rows or per-table copies."""

    @pytest.mark.parametrize("kind", [RouterKind.QUORUM, RouterKind.FULL_MESH])
    def test_routes_identical_after_run(self, kind):
        n = 20
        rng = np.random.default_rng(5)
        ov = build_overlay(trace=uniform_random_metric(n, rng), router=kind, rng=rng)
        ov.run(150.0)
        for node in ov.nodes[:6]:
            router = node.router
            shared = router.table
            shared_routes = [router.route_to(d) for d in range(n)]
            s_hops, s_usable = router.route_vector()
            router.table = CopyInTable.of(shared, strict=kind is RouterKind.QUORUM)
            try:
                copied_routes = [router.route_to(d) for d in range(n)]
                c_hops, c_usable = router.route_vector()
            finally:
                router.table = shared
            for a, b in zip(shared_routes, copied_routes):
                assert (a.hop, a.cost_ms, a.source) == (b.hop, b.cost_ms, b.source)
            assert np.array_equal(s_hops, c_hops)
            assert np.array_equal(s_usable, c_usable)


@pytest.fixture
def published(monkeypatch):
    """Every link-state row put on the wire: origin -> [(time, row)]."""
    log = {}
    send_many = DatagramTransport.send_many

    def recording(self, src, dsts, msgs):
        for msg in msgs if isinstance(msgs, (list, tuple)) else [msgs]:
            if isinstance(msg, LinkStateMessage):
                log.setdefault(msg.origin, []).append((self._sim.now, msg.row))
        return send_many(self, src, dsts, msgs)

    monkeypatch.setattr(DatagramTransport, "send_many", recording)
    return log


def lossless_overlay(n, kind, seed=7, **config):
    rng = np.random.default_rng(seed)
    trace = planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0)
    return build_overlay(
        trace=trace, router=kind, rng=rng, config=OverlayConfig(**config), with_freshness=False
    )


def settle(ov, published):
    """Advance to an instant with no link-state message in flight."""
    flight_s = float(ov.topology.rtt_matrix_ms.max()) / 2000.0 + 0.01
    for _ in range(4000):
        if ov.sim.now - max(sent[-1][0] for sent in published.values()) > flight_s:
            return
        ov.run(0.05)
    raise AssertionError("the overlay never went quiet")


def census(ov, published, remapped=False):
    """Assert the one-row-per-process invariants on a settled, lossless
    overlay.

    Returns ``(objects, holdings)``: how many distinct row objects the
    tables hold among rows that arrived since their origin last
    published, and how many table entries point at them. After a view
    delta (``remapped``) a table may keep rows it rebuilt itself, from
    members that are no longer its clients; before one, every held row
    was published.
    """
    settle(ov, published)
    routers = {node.id: node.router for node in ov.nodes if node.id in ov.active}
    objects, holdings = set(), 0
    for me, router in routers.items():
        table = router.table
        assert table.row(router.me_idx) is published[me][-1][1]
        for idx, origin in enumerate(router.member_ids.tolist()):
            row = table.row(idx)
            if row is None or origin == me:
                continue
            assert remapped or any(row is sent for _, sent in published[origin]), (
                f"node {me} holds a row for {origin} that {origin} never published"
            )
            last_sent_at, last_sent = published[origin][-1]
            if table.row_time[idx] >= last_sent_at:
                owner = routers[origin]
                assert row is last_sent is owner.table.row(owner.me_idx)
                objects.add(id(row))
                holdings += 1
    return len(objects), holdings


class TestOneRowPerProcess:
    def test_unchanged_monitor_republishes_the_same_row(self, published):
        # Quorum ticks every 15 s, the monitor probes every 30 s: every
        # other tick has nothing new to say.
        ov = lossless_overlay(16, RouterKind.QUORUM)
        ov.run(60.0)
        sender = ov.nodes[3].router
        server_idx = sender.grid.servers(sender.me_idx, include_self=False)[0]
        receiver = ov.nodes[sender.member_ids[server_idx]].router
        repeats = changes = 0
        for _ in range(8):
            sent = len(published[3])
            row_before = receiver.table.row(sender.me_idx)
            time_before = float(receiver.table.row_time[sender.me_idx])
            ov.run(15.0)
            assert len(published[3]) == sent + 1  # one tick, one message
            _, last_sent = published[3][-1]
            held = receiver.table.row(sender.me_idx)
            assert held is last_sent
            assert receiver.table.row_time[sender.me_idx] > time_before
            same = last_sent is row_before
            repeats += same
            changes += not same
            # The held row changes exactly when the publisher's object does.
            assert (held is row_before) == same
        assert repeats >= 3 and changes >= 3

    @pytest.mark.parametrize(
        "n, kind", [(64, RouterKind.QUORUM), (32, RouterKind.FULL_MESH)]
    )
    def test_fresh_rows_are_the_publishers_own(self, published, n, kind):
        ov = lossless_overlay(n, kind)
        ov.run(200.0)
        objects, holdings = census(ov, published)
        # n distinct fresh rows in the process, not one per holder.
        assert objects == n
        assert holdings >= n * (n - 2 if kind is RouterKind.FULL_MESH else 12)

    def test_view_delta_remaps_then_shares_again(self, published, monkeypatch):
        n = 36
        ov = lossless_overlay(n, RouterKind.QUORUM, membership=OutOfBand(deltas=True))
        ov.run(100.0)
        assert census(ov, published)[0] == n

        remapped = []
        rng = np.random.default_rng(0)
        on_view_change = QuorumRouter.on_view_change

        def checking(router, view):
            oracle, old_members = CopyInTable.of(router.table, strict=True), router.member_ids
            on_view_change(router, view)
            survivors_old = np.nonzero(np.isin(old_members, router.member_ids))[0]
            survivors_new = np.searchsorted(router.member_ids, old_members[survivors_old])
            oracle = oracle.remap(survivors_old, survivors_new, view.n)
            # The router re-installed its own row after the remap.
            own = router.table.row(router.me_idx)
            now = router.sim.now
            oracle.update_row(router.me_idx, own.latency_ms, own.alive, now)
            assert_same_answers(router.table, oracle, now, rng)
            remapped.append(router.me)

        monkeypatch.setattr(QuorumRouter, "on_view_change", checking)
        ov.leave_node(17)
        ov.run(1.0)
        assert sorted(remapped) == [i for i in range(n) if i != 17]
        assert all(node.router.view.n == n - 1 for node in ov.nodes if node.id != 17)
        ov.run(16.0)  # one routing interval: everyone has published again
        assert census(ov, published, remapped=True)[0] == n - 1
