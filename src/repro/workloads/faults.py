"""Fault injection plans: coordinator, member, and underlay faults in one trace.

A :class:`FaultPlan` is the one thing that schedules faults on an
overlay: coordinator crash/restore and member crash/join/leave events
(:class:`~repro.workloads.trace.ChurnEvent` s, a whole
:class:`~repro.workloads.trace.ChurnTrace` at once through
:meth:`FaultPlan.add_churn`) are scheduled on the overlay's simulator,
while partitions and node outages compile down to an ordinary
:class:`~repro.net.failures.FailureTable` of outage windows — built
*before* the overlay, because outage windows are immutable topology
inputs.
:func:`replay` installs a plan, attaches the
:class:`~repro.overlay.stats.DisruptionRecorder` and runs the simulator:
every churn, failover and gossip experiment goes through it.

The fault shapes the failover and gossip-membership suites need:

* :func:`crash_coordinator` / :func:`restore_coordinator` — crash-stop a
  coordinator endpoint (timed to land inside an open ``notify_batch_s``
  window when the scenario wants that fault) and optionally bring it
  back later as a resyncing backup.
* :func:`partition` — sever two node sets for a window. Partitioning the
  primary's host from everyone tests graceful degradation (no
  mass-expiry, bounded staleness); partitioning the coordinators from
  *each other* while each side keeps some members forces conflicting
  concurrent views, which the epoch rule must converge after healing.
  Windows for the same side pair that overlap (or touch) are merged at
  construction time, so a plan never compiles two conflicting
  windows for one cut.
* :func:`node_outage` — take a node's *links* down for a window without
  crashing its process: the node keeps gossiping into a void and must
  reconcile when connectivity returns. This is the underlay half of a
  correlated-failure trace.
* :func:`fail_node` / :func:`join_node` / :func:`leave_node` and
  :func:`add_churn` — member-level crashes and (re)joins, so one plan
  can combine a :class:`~repro.workloads.trace.ChurnTrace` (e.g. a
  correlated rack crash) with coordinator faults and underlay outages
  under a single deterministic schedule.

Coordinator endpoints share their host node's links, so "partition
coordinator i from members S" is expressed by cutting ``host(i)`` from
``S`` — exactly how the real system would experience it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.net.failures import FailureTable, build_partition_table
from repro.overlay.harness import Overlay
from repro.overlay.stats import DisruptionRecorder
from repro.workloads.trace import (
    ACTION_FAIL,
    ACTION_JOIN,
    ACTION_LEAVE,
    ChurnEvent,
    ChurnTrace,
)

__all__ = ["FaultEvent", "FaultPlan", "replay"]

ACTION_CRASH_COORD = "crash-coordinator"
ACTION_RESTORE_COORD = "restore-coordinator"

#: Virtual seconds between :func:`replay`'s disruption samples.
SAMPLE_PERIOD_S = 5.0


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled coordinator fault."""

    time: float
    action: str
    coordinator: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise WorkloadError("fault event time must be non-negative")
        if self.action not in (ACTION_CRASH_COORD, ACTION_RESTORE_COORD):
            raise WorkloadError(f"unknown fault action {self.action!r}")
        if self.coordinator < 0:
            raise WorkloadError("coordinator index must be non-negative")


def _canonical_sides(
    side_a: Sequence[int], side_b: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Validate and canonicalize a partition's side pair.

    Sides are deduplicated, sorted, and ordered so the lexicographically
    smaller side comes first — two cuts severing the same pair of sets
    always canonicalize identically, which is what lets overlapping
    windows for the same cut be detected and merged.
    """
    a = tuple(sorted(set(int(i) for i in side_a)))
    b = tuple(sorted(set(int(i) for i in side_b)))
    if not a or not b:
        raise WorkloadError("partition sides must be non-empty")
    if a[0] < 0 or b[0] < 0:
        raise WorkloadError("partition sides must contain node ids >= 0")
    if set(a) & set(b):
        raise WorkloadError("partition sides must be disjoint")
    return (a, b) if a <= b else (b, a)


@dataclass(slots=True)
class FaultPlan:
    """A deterministic schedule of membership-plane and underlay faults.

    Build the plan first, derive its :meth:`failure_table` to construct
    the overlay's topology, then :meth:`install` it on the built overlay
    (or hand both to :func:`replay`) to schedule the crash/restore/churn
    events. A plan installs once.
    """

    events: List[FaultEvent] = field(default_factory=list)
    #: Member-level crash/join/leave events.
    member_events: List[ChurnEvent] = field(default_factory=list)
    #: Partition cuts as ``(start, end, side_a, side_b)`` node-id sets.
    #: Sides are canonicalized and same-pair windows merged on insert.
    cuts: List[Tuple[float, float, Tuple[int, ...], Tuple[int, ...]]] = field(
        default_factory=list
    )
    #: Link-level node outages as ``(start, end, nodes)``.
    node_outages: List[Tuple[float, float, Tuple[int, ...]]] = field(
        default_factory=list
    )
    #: ``(n, initial_active)`` of every absorbed trace, checked against
    #: the overlay at install.
    _starts: List[Tuple[int, Tuple[int, ...]]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _installed: bool = field(default=False, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def crash_coordinator(self, time: float, index: int) -> "FaultPlan":
        """Crash-stop coordinator ``index`` at ``time``."""
        self.events.append(FaultEvent(time, ACTION_CRASH_COORD, index))
        return self

    def restore_coordinator(self, time: float, index: int) -> "FaultPlan":
        """Restart coordinator ``index`` (as a backup) at ``time``."""
        self.events.append(FaultEvent(time, ACTION_RESTORE_COORD, index))
        return self

    def fail_node(self, time: float, node: int) -> "FaultPlan":
        """Crash-stop member ``node`` at ``time``."""
        self.member_events.append(ChurnEvent(time, ACTION_FAIL, node))
        return self

    def join_node(self, time: float, node: int) -> "FaultPlan":
        """Join (or reboot) member ``node`` at ``time``."""
        self.member_events.append(ChurnEvent(time, ACTION_JOIN, node))
        return self

    def leave_node(self, time: float, node: int) -> "FaultPlan":
        """Gracefully depart member ``node`` at ``time``."""
        self.member_events.append(ChurnEvent(time, ACTION_LEAVE, node))
        return self

    def add_churn(self, trace: ChurnTrace) -> "FaultPlan":
        """Absorb every event of a :class:`ChurnTrace` into this plan.

        This is how a churn trace reaches an overlay, alone or combined
        with coordinator faults and underlay outages in one deterministic
        schedule. The trace's feasibility was validated on its
        construction; :meth:`install` checks that the overlay has the
        trace's ``n`` and starts from its ``initial_active`` set, and
        replays the combined plan against the overlay's own state.
        """
        self.member_events.extend(trace.events)
        self._starts.append((trace.n, trace.initial_active))
        return self

    def partition(
        self,
        start: float,
        end: float,
        side_a: Sequence[int],
        side_b: Sequence[int],
    ) -> "FaultPlan":
        """Cut every ``side_a`` <-> ``side_b`` link during ``[start, end)``.

        Sides must be non-empty and disjoint. A window that overlaps (or
        exactly duplicates) an earlier window for the same side pair is
        merged with it instead of being stored twice — the plan's
        ``cuts`` list always holds disjoint windows per canonical pair,
        so it reads back as the schedule that will actually be compiled.
        """
        if end <= start:
            raise WorkloadError(f"bad partition window [{start}, {end})")
        sides = _canonical_sides(side_a, side_b)
        lo, hi = float(start), float(end)
        kept: List[Tuple[float, float, Tuple[int, ...], Tuple[int, ...]]] = []
        for cut in self.cuts:
            c_start, c_end, c_a, c_b = cut
            if (c_a, c_b) == sides and c_start <= hi and lo <= c_end:
                # Overlapping or touching window for the same cut: widen
                # the new window to cover it and drop the old entry.
                lo = min(lo, c_start)
                hi = max(hi, c_end)
            else:
                kept.append(cut)
        kept.append((lo, hi, sides[0], sides[1]))
        self.cuts[:] = kept
        return self

    def node_outage(
        self, start: float, end: float, nodes: Sequence[int]
    ) -> "FaultPlan":
        """Take every link of ``nodes`` down during ``[start, end)``.

        Unlike :meth:`fail_node` the node processes keep running — this
        models a connectivity blackout (access-link cut, rack uplink
        loss), after which the isolated nodes must anti-entropy their
        way back to the converged view.
        """
        if end <= start:
            raise WorkloadError(f"bad outage window [{start}, {end})")
        ids = tuple(sorted(set(int(i) for i in nodes)))
        if not ids:
            raise WorkloadError("node outage needs at least one node")
        if ids[0] < 0:
            raise WorkloadError("node outage ids must be >= 0")
        self.node_outages.append((float(start), float(end), ids))
        return self

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def failure_table(self, n: int) -> FailureTable:
        """The partition cuts and node outages compiled to outage windows.

        Pass the result to ``build_overlay(..., failures=...)`` (the
        crash/restore/churn events are not part of it — they are
        simulator events installed later).
        """
        for _, _, ids in self.node_outages:
            for node in ids:
                if not 0 <= node < n:
                    raise WorkloadError(f"outage node {node} out of range for n={n}")
        return build_partition_table(n, self.cuts, self.node_outages)

    def install(self, overlay: Overlay) -> None:
        """Schedule every crash/restore/churn event on the overlay's simulator.

        The whole plan is validated before anything is scheduled, so a
        rejected plan leaves the simulator untouched: the member events
        are replayed symbolically against ``overlay.active`` in schedule
        order (a crash or leave needs an active node, a join an inactive
        one), no event may lie in the past, every absorbed trace must
        match the overlay's ``n`` and current active set, and a plan
        installs only once. Coordinator events need a membership plane
        that has coordinators to crash (the replicated one); a plan
        holding only member events and outages installs onto any plane
        (the gossip scenarios rely on this to replay the identical
        member-level trace on both planes).
        """
        sim = overlay.sim
        plane = overlay.membership
        k = len(getattr(plane, "coordinators", ()))
        if self._installed:
            raise WorkloadError("fault plan already installed")
        if self.events and k == 0:
            raise WorkloadError(
                "coordinator faults need a membership plane with "
                "coordinators to crash: OverlayConfig(membership=Replicated(...))"
            )
        for ev in self.events:
            if ev.coordinator >= k:
                raise WorkloadError(f"coordinator {ev.coordinator} does not exist (k={k})")
        times = [ev.time for ev in self.events] + [ev.time for ev in self.member_events]
        if times and min(times) < sim.now:
            raise WorkloadError(f"event at t={min(times)} is in the past (now t={sim.now})")
        for n, initial_active in self._starts:
            if n != overlay.n:
                raise WorkloadError(f"trace is for n={n}, overlay has n={overlay.n}")
            if set(initial_active) != overlay.active:
                raise WorkloadError(
                    "overlay active set does not match trace.initial_active; "
                    "build the overlay with active_members=trace.initial_active"
                )
        member_events = sorted(self.member_events, key=lambda e: (e.time, e.node))
        active = set(overlay.active)
        for mev in member_events:
            if mev.node >= overlay.n:
                raise WorkloadError(f"member event node {mev.node} out of range (n={overlay.n})")
            joining = mev.action == ACTION_JOIN
            if joining == (mev.node in active):
                state = "active" if joining else "not active"
                raise WorkloadError(f"{mev.action} of node {mev.node} at t={mev.time}: it is {state} then")
            if joining:
                active.add(mev.node)
            else:
                active.discard(mev.node)
        self._installed = True
        for ev in sorted(self.events, key=lambda e: (e.time, e.coordinator)):
            action = (
                plane.crash_coordinator
                if ev.action == ACTION_CRASH_COORD
                else plane.restore_coordinator
            )
            sim.schedule_at(ev.time, action, ev.coordinator)
        member_actions = {
            ACTION_FAIL: overlay.fail_node,
            ACTION_JOIN: overlay.join_node,
            ACTION_LEAVE: overlay.leave_node,
        }
        for mev in member_events:
            sim.schedule_at(mev.time, member_actions[mev.action], mev.node)


def replay(overlay: Overlay, plan: FaultPlan, until_s: float) -> DisruptionRecorder:
    """Install ``plan`` on ``overlay``, sample disruption, run to ``until_s``.

    The recorder samples route availability every
    :data:`SAMPLE_PERIOD_S`; leave a few minutes after the last event
    for recovery to show (detection takes up to a probing interval,
    route repair up to two routing intervals).
    """
    plan.install(overlay)
    recorder = overlay.attach_disruption(SAMPLE_PERIOD_S)
    overlay.sim.run_until(until_s)
    return recorder
