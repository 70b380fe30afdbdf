"""Unit tests for the discrete-event simulator."""

import pytest

from repro.errors import SimulationError
from repro.net.simulator import Event, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, seen.append, "late")
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(3.0, seen.append, "middle")
        sim.run()
        assert seen == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        seen = []
        for tag in "abcde":
            sim.schedule(2.0, seen.append, tag)
        sim.run()
        assert seen == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(4.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.5]
        assert sim.now == 4.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=100.0)
        fired = []
        sim.schedule_at(101.5, fired.append, 1)
        sim.run()
        assert fired == [1]
        assert sim.now == 101.5

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append("outer")
            sim.schedule(1.0, seen.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_infinite_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        e1.cancel()
        assert sim.pending() == 1


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.schedule(3.0, seen.append, "c")
        sim.run_until(2.0)
        assert seen == ["a", "b"]
        assert sim.now == 2.0
        sim.run_until(10.0)
        assert seen == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_run_until_backwards_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_events_run_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_run == 5


class TestPeriodicTimer:
    def test_periodic_fires_repeatedly(self):
        sim = Simulator()
        times = []
        sim.periodic(10.0, lambda: times.append(sim.now))
        sim.run_until(35.0)
        assert times == [0.0, 10.0, 20.0, 30.0]

    def test_phase_offsets_first_firing(self):
        sim = Simulator()
        times = []
        sim.periodic(10.0, lambda: times.append(sim.now), phase=3.0)
        sim.run_until(25.0)
        assert times == [3.0, 13.0, 23.0]

    def test_stop_halts_timer(self):
        sim = Simulator()
        times = []
        timer = sim.periodic(5.0, lambda: times.append(sim.now))
        sim.run_until(11.0)
        timer.stop()
        sim.run_until(50.0)
        assert times == [0.0, 5.0, 10.0]
        assert timer.stopped

    def test_callback_may_stop_its_own_timer(self):
        sim = Simulator()
        count = []

        def cb():
            count.append(sim.now)
            if len(count) == 2:
                timer.stop()

        timer = sim.periodic(1.0, cb, phase=1.0)
        sim.run_until(10.0)
        assert count == [1.0, 2.0]

    def test_bad_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.periodic(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.periodic(1.0, lambda: None, phase=-1.0)

    def test_args_are_passed(self):
        sim = Simulator()
        seen = []
        sim.periodic(1.0, seen.append, "tick", phase=1.0)
        sim.run_until(2.5)
        assert seen == ["tick", "tick"]


class TestEdgeCases:
    """Churn-engine-motivated corners: same-instant scheduling, cancels
    interleaved with ties, and timers stopped from their own callback."""

    def test_stop_timer_from_inside_callback_cancels_pending_event(self):
        # The timer re-schedules itself *before* running the callback;
        # stop() from inside the callback must cancel that fresh event.
        sim = Simulator()
        fired = []

        def cb():
            fired.append(sim.now)
            timer.stop()

        timer = sim.periodic(2.0, cb, phase=2.0)
        sim.run_until(2.0)
        assert fired == [2.0]
        assert sim.pending() == 0
        sim.run_until(100.0)
        assert fired == [2.0]

    def test_stop_timer_inside_callback_with_same_time_followers(self):
        # Other events at the same timestamp still run after the stop.
        sim = Simulator()
        seen = []

        def cb():
            seen.append("timer")
            timer.stop()

        timer = sim.periodic(5.0, cb, phase=5.0)
        sim.schedule(5.0, seen.append, "follower")
        sim.run_until(20.0)
        assert seen == ["timer", "follower"]

    def test_schedule_at_exactly_now_outside_run(self):
        sim = Simulator(start_time=7.0)
        fired = []
        sim.schedule_at(7.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 7.0

    def test_zero_delay_from_inside_callback_fires_same_timestamp(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(0.0, lambda: seen.append(("inner", sim.now)))

        sim.schedule(3.0, outer)
        sim.schedule(3.0, lambda: seen.append(("peer", sim.now)))
        sim.run()
        # The zero-delay event lands at the same instant but *after*
        # already-queued same-time events (insertion order).
        assert seen == [("outer", 3.0), ("peer", 3.0), ("inner", 3.0)]

    def test_zero_delay_at_run_until_boundary_still_fires(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.0, lambda: sim.schedule(0.0, seen.append, "inner"))
        sim.run_until(4.0)
        assert seen == ["inner"]
        assert sim.now == 4.0

    def test_tie_break_by_insertion_order_under_interleaved_cancels(self):
        sim = Simulator()
        seen = []
        events = {}

        def canceller():
            seen.append("a")
            events["c"].cancel()
            events["e"].cancel()

        sim.schedule(2.0, canceller)
        for tag in "bcde":
            events[tag] = sim.schedule(2.0, seen.append, tag)
        # A later same-time event scheduled after some cancels keeps its
        # insertion position.
        sim.schedule(2.0, seen.append, "f")
        sim.run()
        assert seen == ["a", "b", "d", "f"]

    def test_cancel_then_schedule_same_time_preserves_order(self):
        sim = Simulator()
        seen = []
        first = sim.schedule(1.0, seen.append, "first")
        first.cancel()
        sim.schedule(1.0, seen.append, "second")
        sim.schedule(1.0, seen.append, "third")
        sim.run()
        assert seen == ["second", "third"]

    def test_periodic_timer_started_inside_callback_at_phase_zero(self):
        # phase=0 means "first firing now": legal from inside an event.
        sim = Simulator()
        seen = []

        def starter():
            timers.append(sim.periodic(10.0, lambda: seen.append(sim.now)))

        timers = []
        sim.schedule(5.0, starter)
        sim.run_until(25.0)
        assert seen == [5.0, 15.0, 25.0]

    def test_stop_is_idempotent_from_callback_and_outside(self):
        sim = Simulator()
        count = []

        def cb():
            count.append(sim.now)
            timer.stop()
            timer.stop()

        timer = sim.periodic(1.0, cb, phase=1.0)
        sim.run_until(10.0)
        timer.stop()
        assert count == [1.0]
        assert timer.stopped


class TestDeterminism:
    def test_identical_schedules_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []
            sim.periodic(3.0, lambda: trace.append(("p", sim.now)), phase=1.0)
            sim.schedule(2.0, lambda: trace.append(("a", sim.now)))
            sim.schedule(2.0, lambda: trace.append(("b", sim.now)))
            sim.run_until(9.0)
            return trace

        assert run_once() == run_once()


class TestLazyCompaction:
    """Regression: cancelled events must not accumulate in the heap.

    Under churn at n >= 1000, ``PeriodicTimer.stop()`` and rapid-probe
    cancellation leave dead entries behind; without compaction they
    linger until their (possibly far-future) firing time is popped.
    """

    def test_repeated_timer_start_stop_keeps_heap_bounded(self):
        sim = Simulator()
        for _ in range(5000):
            timer = sim.periodic(3600.0, lambda: None, phase=3600.0)
            timer.stop()
        # Far fewer than the 5000 dead entries survive in the heap.
        assert len(sim._queue) <= 2 * Simulator.COMPACT_MIN_CANCELLED
        assert sim.pending() == 0
        assert sim.compactions > 0

    def test_mass_event_cancellation_compacts(self):
        sim = Simulator()
        events = [sim.schedule(1000.0 + i, lambda: None) for i in range(2000)]
        keep = sim.schedule(0.5, lambda: None)
        for e in events:
            e.cancel()
        assert sim.pending() == 1
        assert len(sim._queue) <= 2 * Simulator.COMPACT_MIN_CANCELLED
        assert not keep.cancelled

    def test_compaction_preserves_order_and_fires_survivors(self):
        sim = Simulator()
        seen = []
        for i in range(300):
            e = sim.schedule(float(i + 1), seen.append, i)
            if i % 3:
                e.cancel()
        sim.compact()
        sim.run()
        assert seen == [i for i in range(300) if i % 3 == 0]

    def test_small_cancel_counts_do_not_compact(self):
        sim = Simulator()
        events = [sim.schedule(10.0 + i, lambda: None) for i in range(10)]
        for e in events:
            e.cancel()
        assert sim.compactions == 0
        assert sim.pending() == 0

    def test_pending_is_exact_after_pops_and_cancels(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        e2 = sim.schedule(2.0, lambda: None)
        e3 = sim.schedule(3.0, lambda: None)
        e2.cancel()
        assert sim.pending() == 2
        sim.run_until(1.5)
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0
        # Cancelling an already-fired event must not corrupt the count.
        e1.cancel()
        e3.cancel()
        assert sim.pending() == 0


class TestHeapEntries:
    """The heap holds ``(time, seq, event)``: ordering is decided by the
    two leading numbers, in C, and never by comparing events."""

    def test_events_define_no_ordering(self):
        a = Event(1.0, 0, print, ())
        b = Event(1.0, 1, print, ())
        with pytest.raises(TypeError):
            a < b

    def test_time_seq_pairs_are_unique_so_events_are_never_compared(self):
        sim = Simulator()
        for _ in range(200):
            sim.schedule_at(1.0, lambda: None)  # every pair ties on time
        pairs = [(time, seq) for time, seq, _ in sim._queue]
        assert len(set(pairs)) == len(pairs)
        # Would raise TypeError if a tie ever reached the Event.
        sim.run()
        assert sim.events_run == 200

    def test_ties_fire_in_insertion_order_before_and_after_compact(self):
        sim = Simulator()
        seen = []
        events = [sim.schedule_at(5.0, seen.append, i) for i in range(400)]
        for i, event in enumerate(events):
            if i % 4 == 0 and i < 200:
                event.cancel()
        assert sim.compactions == 0
        sim.run_until(5.0)  # same-time batch, uncompacted heap
        survivors = [i for i in range(400) if not (i % 4 == 0 and i < 200)]
        assert seen == survivors

        seen.clear()
        events = [sim.schedule_at(9.0, seen.append, i) for i in range(400)]
        for i, event in enumerate(events):
            if i % 2:
                event.cancel()
        sim.compact()  # heapify reorders the list, not the firing order
        assert sim.cancelled_pending == 0
        sim.run()
        assert seen == list(range(0, 400, 2))

    def test_compaction_from_inside_a_callback_keeps_the_run_going(self):
        sim = Simulator()
        seen = []
        doomed = [sim.schedule_at(3.0, seen.append, "x") for _ in range(200)]

        def cancel_all():
            for event in doomed:
                event.cancel()

        sim.schedule_at(1.0, cancel_all)
        sim.schedule_at(2.0, seen.append, "kept")
        sim.schedule_at(4.0, seen.append, "late")
        sim.run_until(10.0)
        assert sim.compactions >= 1
        assert seen == ["kept", "late"]

    def test_cancelled_entries_are_skipped_and_not_counted(self):
        sim = Simulator()
        seen = []
        first = sim.schedule_at(1.0, seen.append, "a")
        sim.schedule_at(1.0, seen.append, "b")
        first.cancel()
        assert sim.step() is True
        assert seen == ["b"]
        assert sim.events_run == 1
        assert sim.step() is False
