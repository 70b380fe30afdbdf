"""Tests for the partial link-state table."""

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.overlay.linkstate import LinkStateRow, LinkStateTable, SparseLinkStateTable


def row(n, idx=0, value=10.0):
    return LinkStateRow(idx, np.full(n, value), np.ones(n, dtype=bool))


class TestBasics:
    def test_initial_state(self):
        t = LinkStateTable(3)
        assert t.held_rows == 0
        assert t.row(1) is None
        assert np.array_equal(t.effective_cost(1), [np.inf, 0.0, np.inf])
        assert np.all(np.isinf(t.row_age(1, 0.0)))

    def test_update_and_age(self):
        t = LinkStateTable(3)
        t.update_row(1, row(3, 1), now=100.0)
        assert t.row_age(1, 130.0) == 30.0
        assert t.cost_row(1)[2] == 10.0

    def test_bad_index_rejected(self):
        t = LinkStateTable(3)
        with pytest.raises(RoutingError):
            t.update_row(5, row(8, 5), 0.0)
        with pytest.raises(RoutingError):
            row(3, 5)  # a row cannot sit outside its own columns either

    def test_bad_shape_rejected(self):
        t = LinkStateTable(3)
        with pytest.raises(RoutingError):
            t.update_row(0, row(4), 0.0)
        with pytest.raises(RoutingError):
            LinkStateRow(0, np.zeros(3), np.ones(2, dtype=bool))

    def test_row_of_another_position_rejected(self):
        # The row's diagonal says whose it is; 2's row is not 1's.
        t = LinkStateTable(3)
        with pytest.raises(RoutingError):
            t.update_row(1, row(3, 2), 0.0)

    def test_zero_size_rejected(self):
        for table in (LinkStateTable, SparseLinkStateTable):
            with pytest.raises(RoutingError):
                table(0)

    def test_touched_row_is_not_held(self):
        # Regression: the dense table counted finite receive times, so a
        # row that was only touched read as held.
        for table in (LinkStateTable, SparseLinkStateTable):
            t = table(4)
            t.touch_row(2, 1.0)
            assert t.held_rows == 0
            t.update_row(2, row(4, 2), 2.0)
            assert t.held_rows == 1

    def test_unheld_row_gather_rejected_by_the_quorum_table_only(self):
        one = np.array([1])
        with pytest.raises(RoutingError, match="rows never received"):
            SparseLinkStateTable(5).cost_matrix(one)
        mesh = LinkStateTable(5)
        assert np.array_equal(mesh.cost_matrix(one)[0], mesh.cost_row(1))


class TestFreshness:
    def test_fresh_rows(self):
        t = LinkStateTable(4)
        t.update_row(0, row(4, 0), now=10.0)
        t.update_row(2, row(4, 2), now=50.0)
        assert list(t.fresh_rows(60.0, max_age=20.0)) == [2]
        assert sorted(t.fresh_rows(60.0, max_age=100.0)) == [0, 2]


class TestEffectiveLatency:
    def test_dead_links_masked(self):
        t = LinkStateTable(3)
        lat = np.array([5.0, 20.0, 30.0])
        alive = np.array([True, True, False])
        t.update_row(0, LinkStateRow(0, lat, alive), 0.0)
        eff = t.effective_cost(0)
        assert eff[1] == 20.0
        assert np.isinf(eff[2])
        assert eff[0] == 0.0  # self forced to zero

    def test_returns_copy(self):
        t = LinkStateTable(2)
        t.update_row(0, row(2), 0.0)
        eff = t.effective_cost(0)
        eff[1] = 999.0
        assert t.cost_row(0)[1] == 10.0


class TestRowsAreValues:
    """A row is copied in once, then only ever referenced."""

    def test_callers_arrays_are_copied(self):
        lat = np.array([0.0, 20.0, 30.0])
        alive = np.array([True, True, True])
        t = LinkStateTable(3)
        t.update_row(0, LinkStateRow(0, lat, alive), 0.0)
        before = t.effective_cost(0)
        lat[1], alive[2] = 999.0, False
        assert np.array_equal(t.effective_cost(0), before)
        assert t.sees_alive(2, now=1.0, max_age=10.0)

    def test_frozen_input_is_still_normalised(self):
        lat = np.array([7.0, 20.0, 30.0])
        alive = np.array([True, True, False])
        for arr in (lat, alive):
            arr.flags.writeable = False
        r = LinkStateRow(0, lat, alive)
        assert np.array_equal(r.latency_ms, [0.0, 20.0, np.inf])
        assert lat[0] == 7.0

    def test_stored_rows_are_read_only(self):
        t = SparseLinkStateTable(3)
        r = row(3, 1)
        t.update_row(1, r, 0.0)
        for arr in (
            r.latency_ms,
            r.alive,
            t.cost_row(1),
            t.cost_row(2),  # never received
        ):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        t.cost_matrix(np.array([1]))[0, 0] = 1.0  # gathers are private copies
        assert t.cost_row(1)[0] == 10.0

    def test_held_row_follows_object_identity(self):
        t = LinkStateTable(3)
        r = row(3, 1)
        t.update_row(1, r, 1.0)
        t.update_row(1, r, 2.0)  # re-installing the held row refreshes its time
        assert t.row(1) is r and t.row_time[1] == 2.0
        other = row(3, 1)  # equal content, another object
        t.update_row(1, other, 3.0)
        assert t.row(1) is other and t.row_time[1] == 3.0

    def test_cost_row_is_the_one_shared_row(self):
        r = row(3, 1)
        a, b = LinkStateTable(3), SparseLinkStateTable(3)
        a.update_row(1, r, 0.0)
        b.update_row(1, r, 0.0)
        assert a.cost_row(1) is b.cost_row(1) is r.latency_ms


    def test_row_holds_latency_and_alive_only(self):
        r = row(7, 2)
        assert r.nbytes == 7 * (8 + 1)
        assert r.nbytes == r.latency_ms.nbytes + r.alive.nbytes

    def test_remap_moves_both_columns_and_joiners_read_dead(self):
        # Position 1 leaves a view of 5; one member joins at the end.
        t = LinkStateTable(5)
        alive = np.array([True, True, True, False, True])
        t.update_row(2, LinkStateRow(2, [5.0, 6.0, 0.0, 7.0, 9.0], alive), 0.0)
        moved = t.remap(np.array([0, 2, 3, 4]), np.array([0, 1, 2, 3]), 5).row(1)
        assert moved.idx == 1
        assert list(moved.alive) == [True, True, False, True, False]
        assert list(moved.latency_ms) == [5.0, 0.0, np.inf, 9.0, np.inf]
        assert not moved.alive.flags.writeable
        assert not moved.latency_ms.flags.writeable


class TestSeesAlive:
    def test_fresh_row_showing_alive(self):
        t = LinkStateTable(4)
        t.update_row(1, row(4, 1, 5.0), now=100.0)
        assert t.sees_alive(3, now=110.0, max_age=45.0)

    def test_stale_rows_ignored(self):
        t = LinkStateTable(4)
        t.update_row(1, row(4, 1, 5.0), now=100.0)
        assert not t.sees_alive(3, now=300.0, max_age=45.0)

    def test_dst_own_row_excluded(self):
        # Only dst's own row is fresh; it cannot vouch for itself.
        t = LinkStateTable(4)
        t.update_row(3, row(4, 3, 5.0), now=100.0)
        assert not t.sees_alive(3, now=110.0, max_age=45.0)

    def test_rows_showing_dead(self):
        t = LinkStateTable(4)
        alive = np.array([True, True, True, False])
        t.update_row(1, LinkStateRow(1, np.full(4, 5.0), alive), now=100.0)
        assert not t.sees_alive(3, now=110.0, max_age=45.0)
