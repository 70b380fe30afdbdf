"""Unit and property tests for failure injection."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.net.failures import (
    DEFAULT_CLASS_PARAMS,
    FailureTable,
    NodeClass,
    NodeClassParams,
    OutageSchedule,
    assign_node_classes,
    build_failure_table,
    build_partition_table,
    schedule_from_episodes,
)


def windows_digest(table):
    """sha256 over every link window as int64 ``(i, j)`` then float64
    ``(start, end)`` columns, in ``(i, j, start)`` order."""
    i, j, start, end = table.link_windows()
    ij = np.stack([i, j], axis=1).astype(np.int64)
    se = np.stack([start, end], axis=1).astype(np.float64)
    return hashlib.sha256(ij.tobytes() + se.tobytes()).hexdigest(), len(ij)


def stratified_classes(n, rng):
    """The default class mix with fixed counts, permuted by ``rng``."""
    mediocre, poor = round(0.15 * n), max(1, round(0.05 * n))
    classes = (
        [NodeClass.GOOD] * (n - mediocre - poor)
        + [NodeClass.MEDIOCRE] * mediocre
        + [NodeClass.POOR] * poor
    )
    return [classes[i] for i in rng.permutation(n)]


class TestOutageSchedule:
    def test_empty_schedule_is_always_up(self):
        sched = OutageSchedule()
        assert sched.is_up(0.0)
        assert sched.is_up(1e9)
        assert not sched
        assert sched.next_transition(0.0) is None

    def test_basic_interval_queries(self):
        sched = OutageSchedule([(10.0, 20.0), (30.0, 40.0)])
        assert sched.is_up(5.0)
        assert sched.is_down(10.0)  # half-open: start inclusive
        assert sched.is_down(15.0)
        assert sched.is_up(20.0)  # end exclusive
        assert sched.is_down(35.0)
        assert sched.is_up(45.0)

    def test_overlapping_intervals_merge(self):
        sched = OutageSchedule([(10.0, 25.0), (20.0, 30.0), (30.0, 35.0)])
        assert sched.intervals == [(10.0, 35.0)]

    def test_empty_intervals_dropped(self):
        sched = OutageSchedule([(5.0, 5.0)])
        assert sched.intervals == []

    def test_invalid_interval_rejected(self):
        with pytest.raises(TopologyError):
            OutageSchedule([(10.0, 5.0)])

    def test_next_transition(self):
        sched = OutageSchedule([(10.0, 20.0)])
        assert sched.next_transition(0.0) == 10.0
        assert sched.next_transition(15.0) == 20.0
        assert sched.next_transition(25.0) is None

    def test_downtime_accumulates_clipped(self):
        sched = OutageSchedule([(10.0, 20.0), (30.0, 40.0)])
        assert sched.downtime(0.0, 100.0) == 20.0
        assert sched.downtime(15.0, 35.0) == 10.0
        assert sched.downtime(0.0, 5.0) == 0.0

    def test_downtime_bad_window(self):
        with pytest.raises(TopologyError):
            OutageSchedule().downtime(10.0, 5.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1000, allow_nan=False),
                st.floats(0, 1000, allow_nan=False),
            ).map(lambda p: (min(p), max(p))),
            max_size=20,
        )
    )
    def test_merged_intervals_are_sorted_and_disjoint(self, intervals):
        sched = OutageSchedule(intervals)
        merged = sched.intervals
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2
        for s, e in merged:
            assert s < e

    @given(st.floats(0, 1000, allow_nan=False))
    def test_point_query_matches_interval_membership(self, t):
        intervals = [(100.0, 200.0), (300.0, 450.0)]
        sched = OutageSchedule(intervals)
        expected = any(s <= t < e for s, e in intervals)
        assert sched.is_down(t) == expected


class TestScheduleFromEpisodes:
    def test_zero_duty_cycle_gives_empty_schedule(self, rng):
        sched = schedule_from_episodes(rng, 1000.0, 0.0, 60.0)
        assert not sched

    def test_duty_cycle_approximately_respected(self, rng):
        horizon = 500_000.0
        duty = 0.10
        sched = schedule_from_episodes(rng, horizon, duty, 60.0)
        measured = sched.downtime(0.0, horizon) / horizon
        assert 0.5 * duty < measured < 1.8 * duty

    def test_intervals_within_horizon(self, rng):
        sched = schedule_from_episodes(rng, 1000.0, 0.3, 60.0)
        for s, e in sched.intervals:
            assert 0.0 <= s < e <= 1000.0


class TestNodeClasses:
    def test_default_params_cover_all_classes(self):
        assert set(DEFAULT_CLASS_PARAMS) == set(NodeClass)

    def test_bad_duty_cycle_rejected(self):
        with pytest.raises(TopologyError):
            NodeClassParams(duty_cycle=1.5, mean_outage_s=60.0)
        with pytest.raises(TopologyError):
            NodeClassParams(duty_cycle=0.1, mean_outage_s=0.0)

    def test_assignment_has_guaranteed_good_and_poor(self, rng):
        classes = assign_node_classes(140, rng)
        assert len(classes) == 140
        assert NodeClass.GOOD in classes
        assert NodeClass.POOR in classes

    def test_assignment_mix_roughly_matches(self, rng):
        classes = assign_node_classes(2000, rng)
        frac_good = sum(c is NodeClass.GOOD for c in classes) / 2000
        assert 0.7 < frac_good < 0.9

    def test_bad_mix_rejected(self, rng):
        with pytest.raises(TopologyError):
            assign_node_classes(10, rng, mix=(0.5, 0.2, 0.2))


class TestFailureTable:
    def test_keys_validated(self):
        with pytest.raises(TopologyError):
            FailureTable(n=3, link_schedules={(2, 1): OutageSchedule()})
        with pytest.raises(TopologyError):
            FailureTable(n=3, node_schedules={5: OutageSchedule()})

    def test_link_down_during_outage(self):
        table = FailureTable(
            n=3, link_schedules={(0, 1): OutageSchedule([(10.0, 20.0)])}
        )
        assert table.link_is_up(0, 1, 5.0)
        assert not table.link_is_up(0, 1, 15.0)
        assert not table.link_is_up(1, 0, 15.0)  # symmetric
        assert table.link_is_up(0, 2, 15.0)

    def test_node_outage_kills_all_links(self):
        table = FailureTable(
            n=3, node_schedules={1: OutageSchedule([(10.0, 20.0)])}
        )
        assert not table.link_is_up(0, 1, 15.0)
        assert not table.link_is_up(1, 2, 15.0)
        assert table.link_is_up(0, 2, 15.0)

    def test_up_vector_matches_scalar_queries(self):
        table = FailureTable(
            n=4,
            link_schedules={
                (0, 1): OutageSchedule([(0.0, 100.0)]),
                (0, 3): OutageSchedule([(50.0, 60.0)]),
            },
            node_schedules={2: OutageSchedule([(55.0, 58.0)])},
        )
        for t in (25.0, 56.0, 70.0, 200.0):
            vec = table.up_vector(0, t)
            for j in range(4):
                if j == 0:
                    assert vec[j]
                else:
                    assert vec[j] == table.link_is_up(0, j, t)

    def test_up_many_matches_scalar_queries(self):
        table = FailureTable(
            n=5,
            link_schedules={
                (0, 1): OutageSchedule([(0.0, 100.0)]),
                (0, 3): OutageSchedule([(50.0, 60.0)]),
                (2, 3): OutageSchedule([(50.0, 60.0)]),
            },
            node_schedules={
                2: OutageSchedule([(55.0, 58.0)]),
                4: OutageSchedule([(69.0, 71.0)]),
            },
        )
        # Any order, duplicates, the source itself, a subset of the row.
        js = np.array([3, 0, 1, 4, 2, 2, 0, 3])
        for t in (25.0, 56.0, 70.0, 200.0):
            for i in range(5):
                assert table.up_many(i, js, t).tolist() == [
                    table.link_is_up(i, j, t) for j in js.tolist()
                ]
                assert table.up_many(i, js[:0], t).tolist() == []

    def test_crashed_source_sees_everything_down(self):
        table = FailureTable(n=3, node_schedules={0: OutageSchedule([(0.0, 10.0)])})
        vec = table.up_vector(0, 5.0)
        assert vec[0]
        assert not vec[1] and not vec[2]
        assert table.up_many(0, np.array([2, 0, 1]), 5.0).tolist() == [False, True, False]

    def test_concurrent_failures_counts_down_links(self):
        table = FailureTable(
            n=4,
            link_schedules={
                (0, 1): OutageSchedule([(0.0, 100.0)]),
                (0, 2): OutageSchedule([(0.0, 100.0)]),
            },
        )
        assert table.concurrent_failures(0, 50.0) == 2
        assert table.concurrent_failures(0, 150.0) == 0
        assert table.concurrent_failures(3, 50.0) == 0


class TestBuildFailureTable:
    def test_poor_nodes_see_more_concurrent_failures(self, rng):
        n = 60
        classes = [NodeClass.GOOD] * (n - 3) + [NodeClass.POOR] * 3
        table = build_failure_table(n, 3600.0, rng, node_classes=classes)
        times = np.linspace(100.0, 3500.0, 20)
        good_avg = np.mean([table.concurrent_failures(0, t) for t in times])
        poor_avg = np.mean([table.concurrent_failures(n - 1, t) for t in times])
        assert poor_avg > good_avg

    def test_wrong_class_count_rejected(self, rng):
        with pytest.raises(TopologyError):
            build_failure_table(5, 100.0, rng, node_classes=[NodeClass.GOOD] * 3)

    def test_windows_are_pinned(self):
        """Every interval of two built tables, bit for bit: the values
        the per-link ``OutageSchedule`` builder produced."""
        table = build_failure_table(64, 400.0, np.random.default_rng(3))
        assert windows_digest(table) == (
            "19967b7ebc1f283e2dd4f85951117cf0f3d99990cfe0dbeaa6cdda06877a5985",
            511,
        )
        rng = np.random.default_rng(42)
        table = build_failure_table(
            160, 240.0, rng, node_classes=stratified_classes(160, rng)
        )
        assert windows_digest(table) == (
            "56d9e242b101abe93db6ace1a9391f62393bdb109329d461c8a47069c58b2fe5",
            2210,
        )

    def test_each_link_is_drawn_as_schedule_from_episodes_draws_it(self):
        n, horizon = 12, 900.0
        classes = stratified_classes(n, np.random.default_rng(5))
        table = build_failure_table(
            n, horizon, np.random.default_rng(8), node_classes=classes
        )
        rng = np.random.default_rng(8)
        expected = []
        for a in range(n):
            for b in range(a + 1, n):
                pa, pb = DEFAULT_CLASS_PARAMS[classes[a]], DEFAULT_CLASS_PARAMS[classes[b]]
                sched = schedule_from_episodes(
                    rng,
                    horizon,
                    0.002 + pa.duty_cycle + pb.duty_cycle,
                    max(pa.mean_outage_s, pb.mean_outage_s, 45.0),
                    sigma=max(pa.sigma_outage, pb.sigma_outage),
                )
                expected += [(a, b, s, e) for s, e in sched.intervals]
        assert expected
        assert list(zip(*(col.tolist() for col in table.link_windows()))) == expected


class TestBuildPartitionTable:
    def test_every_node_id_is_checked(self):
        # An id on a side paired with an empty side is checked too.
        with pytest.raises(TopologyError):
            build_partition_table(5, [(0.0, 10.0, [99], [])])
        with pytest.raises(TopologyError):
            build_partition_table(5, [(0.0, 10.0, [], [-1])])
        with pytest.raises(TopologyError):  # a bad later cut
            build_partition_table(5, [(0.0, 10.0, [0], [1]), (0.0, 10.0, [5], [])])
        with pytest.raises(TopologyError):
            build_partition_table(5, [(0.0, 10.0, [0, 1], [1, 2])])
        with pytest.raises(TopologyError):
            build_partition_table(5, [], [(0.0, 10.0, [5])])

    def test_cut_and_outage_windows_merge(self):
        table = build_partition_table(
            6,
            [
                (10.0, 20.0, [0, 1], [2]),
                (20.0, 30.0, [0], [2, 3]),  # touches (0, 2)'s first window
                (15.0, 25.0, [3], [0]),  # overlaps (0, 3)'s window
            ],
            [(40.0, 50.0, [4]), (45.0, 60.0, [4, 5])],
        )
        i, j, start, end = table.link_windows()
        assert list(zip(i.tolist(), j.tolist(), start.tolist(), end.tolist())) == [
            (0, 2, 10.0, 30.0),
            (0, 3, 15.0, 30.0),
            (1, 2, 10.0, 20.0),
        ]
        for t, node4, node5 in ((39.0, True, True), (40.0, False, True),
                                (45.0, False, False), (59.9, False, False),
                                (60.0, True, True)):
            assert table.node_is_up(4, t) is node4
            assert table.node_is_up(5, t) is node5


_window = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
    lambda p: (float(min(p)), float(max(p)))
)


@st.composite
def small_tables(draw):
    """A random table with overlapping, touching and empty windows on
    links and nodes, plus the schedules it was built from."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    links = {
        pair: OutageSchedule(draw(st.lists(_window, max_size=4)))
        for pair in draw(st.lists(st.sampled_from(pairs), unique=True))
    } if pairs else {}
    nodes = {
        node: OutageSchedule(draw(st.lists(_window, max_size=3)))
        for node in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3))
    }
    return FailureTable(n=n, link_schedules=links, node_schedules=nodes), links, nodes


class TestFlatQueries:
    @given(small_tables(), st.lists(st.integers(0, 6), max_size=8))
    def test_every_query_agrees_with_the_schedules(self, built, dsts):
        table, links, nodes = built
        n = table.n
        js = np.array([j % n for j in dsts], dtype=np.int64)

        def node_down(i, t):
            return i in nodes and nodes[i].is_down(t)

        times = np.arange(-0.5, 13.0, 0.5).tolist()
        for t in times[1::2] + times[::-2]:  # forwards, then backwards
            matrix = table.up_matrix(t)
            assert matrix.shape == (n, n) and matrix.dtype == bool
            for i in range(n):
                row = table.up_vector(i, t)
                assert (matrix[i] == row).all()
                assert table.node_is_up(i, t) is not node_down(i, t)
                if node_down(i, t):  # a down source sees only itself
                    assert row.tolist() == [j == i for j in range(n)]
                for j in range(n):
                    key = (min(i, j), max(i, j))
                    expected = i == j or not (
                        node_down(i, t)
                        or node_down(j, t)
                        or (key in links and links[key].is_down(t))
                    )
                    assert table.link_is_up(i, j, t) is expected
                    assert row[j] == expected
                assert table.up_many(i, js, t).tolist() == row[js].tolist()
