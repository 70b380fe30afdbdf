"""One gathered row block per overlay ≡ a fresh gather per call, bit for bit.

The full-mesh route queries read every row of a table on every call.
They used to copy the rows into a fresh ``(n, n)`` matrix each time
(``cost_matrix``, kept here as the oracle); now the overlay's routers
patch one shared :class:`RowBlock` by row identity. The property below
walks one block through sequences of tables — sharing some row objects,
differing at others, missing some, touched-only at some, remapped to
other sizes in the middle — and holds
the block, ``route_vector`` and ``route_to`` equal to the fresh gather
at every visit. The remaining tests pin what identity buys (columns
written) and whose the block is (the overlay's: its rows die with it).
"""

import gc
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_linkstate import CopyInTable

from repro.net.trace import uniform_random_metric
from repro.overlay.config import RouterKind
from repro.overlay.harness import build_overlay
from repro.overlay.linkstate import (
    LinkStateRow,
    LinkStateTable,
    RowBlock,
    SparseLinkStateTable,
)

def tied_row(rng, n, idx):
    """A row over few distinct values, so that equal path costs (argmin
    ties) and dead links (``inf``) are the rule, not the exception."""
    latency = rng.choice([10.0, 20.0, 30.0, 40.0], size=n)
    alive = rng.random(n) < 0.75
    return LinkStateRow(idx, latency, alive)


def fresh_gather(table):
    """The block a visit must leave behind: every cost row, transposed."""
    return table.cost_matrix(np.arange(table.n)).T


def fresh_route_vector(table, me):
    """``FullMeshRouter.route_vector`` as it was: a private ``(n, n)``
    copy per call, reduced over the hop axis."""
    idx = np.arange(table.n)
    own = table.cost_row(me)
    costs = table.cost_matrix(idx)
    costs += own[:, None]
    costs[me, :] = np.inf
    costs[idx, idx] = own
    hops = np.argmin(costs, axis=0)
    best = costs[hops, idx]
    usable = np.isfinite(best)
    return np.where(usable, hops, -1), usable, best


def assert_block_is(block, expected):
    assert block.costs.dtype == expected.dtype == np.float64
    assert block.costs.shape == expected.shape
    assert block.costs.tobytes() == np.ascontiguousarray(expected).tobytes()


class TestBlockEqualsFreshGather:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sequences_of_tables_through_one_block(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # Two routers of one (never run) overlay: real route queries over
        # tables the test swaps in, through the block the overlay gave both.
        overlay = build_overlay(
            trace=uniform_random_metric(2, rng), router=RouterKind.FULL_MESH, rng=rng
        )
        routers = [node.router for node in overlay.nodes]
        block = overlay.row_block
        assert all(router.row_block is block for router in routers)

        # Published rows, one pool per (table size, position): tables
        # that draw the same entry hold the same object.
        pool = {}

        def published(size, idx):
            rows = pool.setdefault((size, idx), [])
            pick = data.draw(st.integers(0, 2), label="row")
            while len(rows) <= pick:
                rows.append(tied_row(rng, size, idx))
            return rows[pick]

        tables = [LinkStateTable(n) for _ in range(data.draw(st.integers(2, 4), label="tables"))]
        for table in tables:
            for idx in range(n):
                state = data.draw(st.sampled_from(["row", "row", "absent", "touched"]))
                if state == "row":
                    table.update_row(idx, published(n, idx), 0.0)
                elif state == "touched":
                    table.touch_row(idx, 0.0)

        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            which = data.draw(st.integers(0, len(tables) - 1), label="table")
            table = tables[which]
            step = data.draw(
                st.sampled_from(["gather", "gather", "route", "route", "copy", "install", "remap"])
            )
            if step == "install":
                idx = data.draw(st.integers(0, table.n - 1), label="idx")
                table.update_row(idx, published(table.n, idx), 1.0)
            elif step == "remap":
                # A view delta reaches some tables before others: those
                # move (sharing the moved rows), the rest keep the old n.
                old = data.draw(st.sets(st.integers(0, table.n - 1), min_size=1), label="survivors")
                n_new = len(old) + data.draw(st.integers(0, 2), label="joined")
                survivors_old = np.array(sorted(old), dtype=np.int64)
                slots = data.draw(st.permutations(range(n_new)), label="slots")
                survivors_new = np.array(slots[: len(old)], dtype=np.int64)
                size = table.n
                for i, other in enumerate(tables):
                    if other.n == size and (other is table or data.draw(st.booleans())):
                        tables[i] = other.remap(survivors_old, survivors_new, n_new)
            elif step == "gather":
                table.gather_into(block)
                assert_block_is(block, fresh_gather(table))
                assert all(block.held[h] is table.row(h) for h in range(table.n))
            elif step == "copy":
                # Per-table copies share no objects: all columns move,
                # and the next reference-holding visitor trusts none.
                CopyInTable.of(table, strict=False).gather_into(block)
                assert_block_is(block, fresh_gather(table))
            else:
                router = routers[data.draw(st.integers(0, 1), label="router")]
                router.table = table
                router.me_idx = data.draw(st.integers(0, table.n - 1), label="me")
                hops, usable, best = fresh_route_vector(table, router.me_idx)
                got_hops, got_usable = router.route_vector()
                assert got_hops.dtype == np.int64 and got_usable.dtype == bool
                assert np.array_equal(got_hops, hops)
                assert np.array_equal(got_usable, usable)
                assert_block_is(block, fresh_gather(table))
                for d in range(table.n):
                    route = router.route_to(d)
                    assert (route.hop, route.usable) == (hops[d], usable[d])
                    assert route.cost_ms == best[d]


def filled(n, rows):
    table = LinkStateTable(n)
    for idx, row in enumerate(rows):
        if row is not None:
            table.update_row(idx, row, 0.0)
    return table


class TestColumnsWritten:
    def test_only_columns_whose_row_object_differs_are_rewritten(self):
        n = 6
        rng = np.random.default_rng(0)
        rows = [tied_row(rng, n, idx) for idx in range(n)]
        a = filled(n, rows)
        b = filled(n, [tied_row(rng, n, 0), *rows[1:4], None, rows[5]])
        block = RowBlock()

        def written(table):
            before = block.columns_written
            table.gather_into(block)
            assert_block_is(block, fresh_gather(table))
            return block.columns_written - before

        assert written(a) == n + n  # a block of this size is set up, then filled
        assert written(a) == 0
        assert written(b) == 2  # another object at 0, none at 4
        assert written(b) == 0
        assert written(a) == 2
        # An equal row is not the same row: identity, not content.
        same_bytes = LinkStateRow(3, rows[3].latency_ms, rows[3].alive)
        a.update_row(3, same_bytes, 1.0)
        assert written(a) == 1
        # Another size starts over.
        shrunk = a.remap(np.arange(1, n), np.arange(n - 1), n - 1)
        assert written(shrunk) == 2 * (n - 1)

    def test_never_received_rows_read_as_dead_in_either_table(self):
        n = 4
        row = tied_row(np.random.default_rng(1), n, 2)
        block = RowBlock()
        for table in (LinkStateTable(n), SparseLinkStateTable(n)):
            table.update_row(2, row, 0.0)
            table.touch_row(1, 0.0)  # touched-only: fresh, no content
            table.gather_into(block)
            expected = np.full((n, n), np.inf)
            np.fill_diagonal(expected, 0.0)
            expected[:, 2] = row.latency_ms
            assert_block_is(block, expected)
            assert block.held == [None, None, row, None]


class TestTheBlockIsTheOverlays:
    def test_quorum_overlay_never_allocates_the_cost_block(self):
        rng = np.random.default_rng(4)
        ov = build_overlay(trace=uniform_random_metric(12, rng), rng=rng)
        ov.run(60.0)
        ov.route_ok_matrix()
        ov.route_hops()
        assert ov.row_block.costs.size == ov.row_block.sums.size == 0
        assert ov.row_block.columns_written == 0

    def test_router_built_alone_makes_its_own_on_first_use(self):
        rng = np.random.default_rng(5)
        ov = build_overlay(
            trace=uniform_random_metric(5, rng), router=RouterKind.FULL_MESH, rng=rng
        )
        router = ov.nodes[0].router
        alone = type(router)(
            router.me, router.sim, router.transport, router.monitor, router.config
        )
        assert alone.row_block is None
        alone.on_view_change(router.view)
        hops, usable = alone.route_vector()
        assert alone.row_block is not None and alone.row_block is not ov.row_block
        assert ov.row_block.n == 0  # and the overlay's was not touched
        assert alone.route_to(1).hop == hops[1]

    def test_rows_are_collectable_once_the_overlay_is_dropped(self):
        # What rules out a process-global block: nothing outside the
        # overlay keeps the rows written into its columns alive.
        rng = np.random.default_rng(6)
        ov = build_overlay(
            trace=uniform_random_metric(8, rng), router=RouterKind.FULL_MESH, rng=rng
        )
        ov.run(70.0)
        ov.route_ok_matrix()
        rows = [weakref.ref(row) for row in ov.row_block.held]
        assert len(rows) == 8 and all(row() is not None for row in rows)
        del ov
        gc.collect()
        assert all(row() is None for row in rows)
