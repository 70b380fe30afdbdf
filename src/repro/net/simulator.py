"""Deterministic discrete-event simulator.

This is the substrate under the overlay: a single-threaded event loop with
a virtual clock. Events are callbacks scheduled at absolute virtual times;
ties are broken by insertion order, so runs are fully deterministic for a
given seed and schedule.

The paper evaluates its system both with an in-system emulation (all nodes
in one process) and a PlanetLab deployment. This simulator plays the role
of the emulation host: overlay nodes schedule probe rounds, routing ticks,
and message deliveries on it.

Example
-------
>>> sim = Simulator()
>>> seen = []
>>> _ = sim.schedule(5.0, seen.append, "a")
>>> _ = sim.schedule(1.0, seen.append, "b")
>>> sim.run()
>>> seen
['b', 'a']
>>> sim.now
5.0
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = ["Event", "PeriodicTimer", "Simulator"]

_INF = math.inf


class Event:
    """A scheduled callback. Returned by scheduling calls; use to cancel.

    Attributes
    ----------
    time:
        Absolute virtual time at which the callback fires.
    cancelled:
        True once :meth:`cancel` has been called; cancelled events are
        skipped by the event loop.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: The simulator whose heap holds this event; None once popped
        #: (or for an event never scheduled).
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing. Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state} {self.fn!r}>"


class PeriodicTimer:
    """A repeating event with fixed period and optional initial phase.

    The timer re-schedules itself after every firing until :meth:`stop`.
    The first firing happens at ``start_time + phase``.
    """

    __slots__ = ("_sim", "_period", "_fn", "_args", "_event", "_stopped")

    def __init__(
        self,
        sim: "Simulator",
        period: float,
        fn: Callable[..., Any],
        args: tuple,
        phase: float,
    ):
        if period <= 0:
            raise SimulationError(f"timer period must be positive, got {period}")
        if phase < 0:
            raise SimulationError(f"timer phase must be non-negative, got {phase}")
        self._sim = sim
        self._period = period
        self._fn = fn
        self._args = args
        self._stopped = False
        self._event = sim.schedule(phase, self._fire)

    @property
    def period(self) -> float:
        return self._period

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        # Re-schedule first so the callback may stop the timer.
        self._event = self._sim.schedule(self._period, self._fire)
        self._fn(*self._args)

    def stop(self) -> None:
        """Stop the timer; pending firing is cancelled. Idempotent."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None


class Simulator:  # reprolint: disable=RL002(one Simulator per experiment, not per node; a __dict__ here is immaterial)
    """Single-threaded deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds).
    """

    #: Compaction triggers once the queue holds more than this many
    #: cancelled entries *and* they outnumber the live ones. Under churn
    #: (rapid-probe cancellations, stopped timers) dead entries would
    #: otherwise linger until their firing time is reached — at n >= 1000
    #: that is tens of thousands of heap slots of pure garbage.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: Heap of ``(time, seq, event)``. ``seq`` is unique, so tuple
        #: comparison is decided by the two leading numbers, in C, and
        #: never reaches the :class:`Event` (which defines no ordering).
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_run = 0
        self._running = False
        self._cancelled_in_queue = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._events_run

    def pending(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return len(self._queue) - self._cancelled_in_queue

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (pre-compaction)."""
        return self._cancelled_in_queue

    @property
    def compactions(self) -> int:
        """How many lazy heap compactions have run (for diagnostics)."""
        return self._compactions

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0 or not math.isfinite(delay):
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if not self._now <= time < _INF:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    # ------------------------------------------------------------------
    # Cancelled-event bookkeeping / lazy compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for an event still in the heap."""
        self._cancelled_in_queue += 1
        if (
            self._cancelled_in_queue > self.COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self.compact()

    def _note_popped(self, event: Event) -> None:
        event._sim = None
        if event.cancelled:
            self._cancelled_in_queue -= 1

    def compact(self) -> None:
        """Drop all cancelled events from the heap and re-heapify.

        Runs automatically when cancelled entries dominate the queue
        (see :data:`COMPACT_MIN_CANCELLED`); safe to call any time —
        event ordering (time, then insertion sequence) is unaffected.
        """
        # In place: the run loop holds a reference to the list.
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self._compactions += 1

    def periodic(
        self,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        phase: float = 0.0,
    ) -> PeriodicTimer:
        """Schedule ``fn(*args)`` every ``period`` seconds.

        The first firing happens at ``now + phase``. Returns the timer so
        the caller can stop it.
        """
        return PeriodicTimer(self, period, fn, args, phase)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next event. Returns False if the queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            self._note_popped(event)
            if event.cancelled:
                continue
            self._now = time
            self._events_run += 1
            event.fn(*event.args)
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue is empty (or ``max_events`` is reached)."""
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        try:
            remaining = math.inf if max_events is None else max_events
            while remaining > 0 and self.step():
                remaining -= 1
        finally:
            self._running = False

    def run_until(self, time: float) -> None:
        """Run all events with ``event.time <= time``, then set now=time.

        Periodic timers make event queues never drain, so experiment
        drivers use this to advance the clock a fixed amount.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards to t={time} (now is t={self._now})"
            )
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        try:
            queue = self._queue
            heappop = heapq.heappop
            while queue:
                due, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    self._note_popped(event)
                    continue
                if due > time:
                    break
                heappop(queue)
                event._sim = None  # _note_popped, for a live event
                self._now = due
                self._events_run += 1
                event.fn(*event.args)
            self._now = time
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.3f} pending={len(self._queue)} "
            f"run={self._events_run}>"
        )
