"""Deterministic churn traces: who joins, leaves, or crashes, and when.

A :class:`ChurnTrace` is a fully materialized schedule of membership
events — every event names a concrete node and an absolute virtual time —
generated ahead of the run from a seed. Materializing the trace (rather
than sampling choices while the simulation runs) is what makes the §6
comparison "quorum vs. full mesh under *identical* churn" literal: both
overlays replay the exact same event list, and a trace can be printed,
diffed, or persisted alongside the results it produced.

Four generators cover the scenario space the Chord-style churn
literature evaluates:

* :meth:`ChurnTrace.poisson` — sustained churn: a Poisson process of
  membership events; each departure is a graceful leave or an abrupt
  crash (:data:`CRASH_FRACTION`), each arrival restarts a standby node.
* :meth:`ChurnTrace.mass_failure` — fail a fraction ``p`` of the overlay
  at one instant and watch recovery.
* :meth:`ChurnTrace.flash_crowd` — a burst of joins inside a few
  seconds, the "everyone shows up at once" membership transient.
* :meth:`ChurnTrace.correlated_failure` — crash whole *groups* of nodes
  near-simultaneously (a rack power loss, an AS-level outage): failures
  in deployed systems are correlated, not independent, and correlated
  loss is what stresses epidemic dissemination hardest because an entire
  neighborhood of gossip peers disappears at once.

Feasibility (joins only of standby *or* previously crashed nodes,
departures only of active nodes, never fewer than
:data:`MIN_ACTIVE` members) is validated on construction by replaying the events
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "ACTION_JOIN",
    "ACTION_LEAVE",
    "ACTION_FAIL",
    "ChurnEvent",
    "ChurnTrace",
]

ACTION_JOIN = "join"
ACTION_LEAVE = "leave"
ACTION_FAIL = "fail"

_ACTIONS = (ACTION_JOIN, ACTION_LEAVE, ACTION_FAIL)

#: Share of the nodes a Poisson trace starts active (the rest stand by).
ACTIVE_FRACTION = 0.75
#: A Poisson trace never departs below this many active members.
MIN_ACTIVE = 8
#: Share of a Poisson trace's departures that are crashes, not leaves.
CRASH_FRACTION = 0.5
#: A correlated failure crashes (and reboots) each node within this
#: many seconds of the burst instant.
CORRELATED_SPREAD_S = 2.0
#: A flash crowd's joiners arrive within this many seconds.
FLASH_SPREAD_S = 5.0


@dataclass(frozen=True)
class ChurnEvent:
    """One membership event: ``node`` does ``action`` at virtual ``time``."""

    time: float
    action: str
    node: int

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise WorkloadError(f"unknown churn action {self.action!r}")
        if self.time < 0:
            raise WorkloadError(f"event time must be >= 0, got {self.time}")
        if self.node < 0:
            raise WorkloadError(f"node id must be >= 0, got {self.node}")


@dataclass(frozen=True)
class ChurnTrace:
    """An immutable, validated schedule of membership events.

    Attributes
    ----------
    n:
        Underlay size; node ids are ``0..n-1``.
    initial_active:
        Sorted node ids active at t=0 (``build_overlay``'s
        ``active_members``).
    events:
        Events sorted by time (ties keep generation order).
    duration_s:
        Nominal trace horizon; all events land strictly inside it.
    """

    n: int
    initial_active: Tuple[int, ...]
    events: Tuple[ChurnEvent, ...]
    duration_s: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise WorkloadError("trace needs n >= 1")
        if self.duration_s <= 0:
            raise WorkloadError("trace duration must be positive")
        if tuple(sorted(set(self.initial_active))) != self.initial_active:
            raise WorkloadError("initial_active must be sorted and unique")
        ids = set(range(self.n))
        if not set(self.initial_active) <= ids:
            raise WorkloadError("initial_active must be underlay indices")
        last_t = 0.0
        active: Set[int] = set(self.initial_active)
        standby: Set[int] = ids - active
        crashed: Set[int] = set()
        for ev in self.events:
            if ev.time < last_t:
                raise WorkloadError("events must be sorted by time")
            if ev.time >= self.duration_s:
                raise WorkloadError(
                    f"event at t={ev.time} outside duration {self.duration_s}"
                )
            last_t = ev.time
            if ev.node not in ids:
                raise WorkloadError(f"event node {ev.node} outside underlay")
            if ev.action == ACTION_JOIN:
                if ev.node not in standby and ev.node not in crashed:
                    raise WorkloadError(
                        f"join of node {ev.node} which is neither standby "
                        "nor crashed"
                    )
                standby.discard(ev.node)
                # A crashed node rejoining models a reboot; the harness
                # evicts its stale membership entry if refresh expiry
                # has not already removed it.
                crashed.discard(ev.node)
                active.add(ev.node)
            else:
                if ev.node not in active:
                    raise WorkloadError(
                        f"{ev.action} of node {ev.node} which is not active"
                    )
                active.discard(ev.node)
                if ev.action == ACTION_LEAVE:
                    standby.add(ev.node)
                else:
                    crashed.add(ev.node)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return len(self.events)

    def count(self, action: str) -> int:
        """Number of events with the given action."""
        return sum(1 for ev in self.events if ev.action == action)

    def fail_times(self) -> Tuple[float, ...]:
        """Distinct times at which at least one node crashes."""
        seen: List[float] = []
        for ev in self.events:
            if ev.action == ACTION_FAIL and (not seen or seen[-1] != ev.time):
                seen.append(ev.time)
        return tuple(seen)

    def active_at_end(self) -> Tuple[int, ...]:
        """Node ids active after the last event."""
        active = set(self.initial_active)
        for ev in self.events:
            if ev.action == ACTION_JOIN:
                active.add(ev.node)
            else:
                active.discard(ev.node)
        return tuple(sorted(active))

    def describe(self) -> str:
        return (
            f"ChurnTrace(n={self.n}, active0={len(self.initial_active)}, "
            f"joins={self.count(ACTION_JOIN)}, leaves={self.count(ACTION_LEAVE)}, "
            f"fails={self.count(ACTION_FAIL)}, duration={self.duration_s:g}s)"
        )

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @staticmethod
    def poisson(
        n: int,
        rate_per_s: float,
        duration_s: float,
        seed: int,
        warmup_s: float = 0.0,
    ) -> "ChurnTrace":
        """Sustained churn: membership events as a Poisson process.

        ``rate_per_s`` is the overall event rate; each event is a join
        (from the standby pool) or a departure (of a uniformly random
        active node) with equal probability while both are possible.
        Departures crash with probability :data:`CRASH_FRACTION` and leave
        gracefully otherwise. No events land before ``warmup_s``, so the
        bootstrap population can converge first.
        """
        if rate_per_s <= 0:
            raise WorkloadError("rate_per_s must be positive")
        rng = np.random.default_rng(seed)
        k = max(min(n, MIN_ACTIVE), int(round(n * ACTIVE_FRACTION)))
        initial = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        active = set(initial)
        standby = sorted(set(range(n)) - active)
        events: List[ChurnEvent] = []
        t = warmup_s + float(rng.exponential(1.0 / rate_per_s))
        while t < duration_s:
            can_join = bool(standby)
            can_depart = len(active) > MIN_ACTIVE
            if not can_join and not can_depart:
                break
            if can_join and (not can_depart or rng.random() < 0.5):
                node = standby.pop(int(rng.integers(len(standby))))
                events.append(ChurnEvent(time=t, action=ACTION_JOIN, node=node))
                active.add(node)
            else:
                pool = sorted(active)
                node = pool[int(rng.integers(len(pool)))]
                active.discard(node)
                if rng.random() < CRASH_FRACTION:
                    events.append(ChurnEvent(time=t, action=ACTION_FAIL, node=node))
                else:
                    events.append(ChurnEvent(time=t, action=ACTION_LEAVE, node=node))
                    standby.append(node)
                    standby.sort()
            t += float(rng.exponential(1.0 / rate_per_s))
        return ChurnTrace(
            n=n,
            initial_active=initial,
            events=tuple(events),
            duration_s=duration_s,
        )

    @staticmethod
    def mass_failure(
        n: int,
        fraction: float,
        at_s: float,
        duration_s: float,
        seed: int,
    ) -> "ChurnTrace":
        """Crash ``fraction`` of the (fully active) overlay at ``at_s``."""
        if not 0.0 < fraction < 1.0:
            raise WorkloadError("fraction must be in (0, 1)")
        if not 0.0 <= at_s < duration_s:
            raise WorkloadError("mass-failure instant must lie inside the trace")
        rng = np.random.default_rng(seed)
        k = int(round(fraction * n))
        if k < 1:
            raise WorkloadError(f"fraction {fraction} fails no nodes at n={n}")
        if n - k < 4:
            raise WorkloadError("mass failure would leave fewer than 4 nodes")
        failed = sorted(rng.choice(n, size=k, replace=False).tolist())
        events = tuple(
            ChurnEvent(time=at_s, action=ACTION_FAIL, node=node) for node in failed
        )
        return ChurnTrace(
            n=n,
            initial_active=tuple(range(n)),
            events=events,
            duration_s=duration_s,
        )

    @staticmethod
    def correlated_failure(
        n: int,
        group_size: int,
        groups_to_fail: int,
        crash_at_s: float,
        duration_s: float,
        seed: int,
        reboot_at_s: float | None = None,
    ) -> "ChurnTrace":
        """Crash whole node groups (racks / ASes) near-simultaneously.

        Nodes ``0..n-1`` are partitioned into contiguous groups of
        ``group_size`` (the last group may be smaller); the trace crashes
        ``groups_to_fail`` uniformly chosen groups, every member of a
        chosen group within :data:`CORRELATED_SPREAD_S` seconds of
        ``crash_at_s``. If
        ``reboot_at_s`` is given, the same nodes rejoin around it —
        rack power restored. Contiguous grouping matches the harness's
        convention that nearby ids share infrastructure (coordinator
        hosts are spread as ``(i*n)//k`` for exactly this reason).
        """
        if group_size < 1:
            raise WorkloadError("group_size must be >= 1")
        spread_s = CORRELATED_SPREAD_S
        num_groups = (n + group_size - 1) // group_size
        if not 1 <= groups_to_fail < num_groups:
            raise WorkloadError(
                f"groups_to_fail must be in [1, {num_groups}) for "
                f"n={n}, group_size={group_size}"
            )
        if not 0.0 <= crash_at_s or crash_at_s + spread_s >= duration_s:
            raise WorkloadError("crash burst must land inside the trace")
        if reboot_at_s is not None and not (
            crash_at_s + spread_s < reboot_at_s
            and reboot_at_s + spread_s < duration_s
        ):
            raise WorkloadError(
                "reboot burst must start after the crash burst and land "
                "inside the trace"
            )
        rng = np.random.default_rng(seed)
        chosen = sorted(
            rng.choice(num_groups, size=groups_to_fail, replace=False).tolist()
        )
        failed = sorted(
            node
            for g in chosen
            for node in range(g * group_size, min((g + 1) * group_size, n))
        )
        if n - len(failed) < 4:
            raise WorkloadError("correlated failure would leave fewer than 4 nodes")
        crash_offsets = rng.uniform(0.0, spread_s, size=len(failed))
        events = [
            ChurnEvent(time=crash_at_s + float(off), action=ACTION_FAIL, node=node)
            for node, off in zip(failed, crash_offsets)
        ]
        if reboot_at_s is not None:
            reboot_offsets = rng.uniform(0.0, spread_s, size=len(failed))
            events.extend(
                ChurnEvent(
                    time=reboot_at_s + float(off), action=ACTION_JOIN, node=node
                )
                for node, off in zip(failed, reboot_offsets)
            )
        events.sort(key=lambda ev: ev.time)
        return ChurnTrace(
            n=n,
            initial_active=tuple(range(n)),
            events=tuple(events),
            duration_s=duration_s,
        )

    @staticmethod
    def flash_crowd(
        n: int,
        count: int,
        at_s: float,
        duration_s: float,
        seed: int,
    ) -> "ChurnTrace":
        """A join burst: ``count`` standby nodes arrive within
        :data:`FLASH_SPREAD_S`."""
        if count < 1 or count >= n:
            raise WorkloadError("flash crowd count must be in [1, n)")
        spread_s = FLASH_SPREAD_S
        if not 0.0 <= at_s or at_s + spread_s >= duration_s:
            raise WorkloadError("flash crowd must land inside the trace")
        rng = np.random.default_rng(seed)
        joiners = sorted(rng.choice(n, size=count, replace=False).tolist())
        offsets = np.sort(rng.uniform(0.0, spread_s, size=count))
        events = tuple(
            ChurnEvent(time=at_s + float(off), action=ACTION_JOIN, node=node)
            for node, off in zip(joiners, offsets)
        )
        return ChurnTrace(
            n=n,
            initial_active=tuple(sorted(set(range(n)) - set(joiners))),
            events=events,
            duration_s=duration_s,
        )
