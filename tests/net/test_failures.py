"""Unit and property tests for failure injection."""

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
    schedule_from_episodes,
)


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
