"""Fault injection plans: coordinator, member, and underlay faults in one trace.

A :class:`FaultPlan` is the one thing that schedules faults on an
overlay: coordinator crash/restore and member crash/join/leave events
(:class:`~repro.workloads.trace.ChurnEvent` s, a whole
:class:`~repro.workloads.trace.ChurnTrace` at once through
:meth:`FaultPlan.add_churn`) are scheduled on the overlay's simulator,
while partitions and node outages compile down to an ordinary
:class:`~repro.net.failures.FailureTable` of outage windows — built
*before* the overlay, because outage windows are immutable topology
inputs. It is also the one way to write a targeted underlay fault: the
§4.1 scenarios' failed links are single-node cuts, ``partition(t, end,
(a,), (b,))``. (The Fig. 8 outage process is
:func:`~repro.net.failures.build_failure_table`'s.)

:func:`replay` installs a plan, attaches the
:class:`~repro.overlay.stats.DisruptionRecorder` and runs the simulator:
every churn, failover and gossip experiment goes through it.

Each input is checked once. Window order, empty or overlapping sides
and negative ids are refused where the plan is written; node ids are
checked against ``n`` in :meth:`FaultPlan.failure_table`, which merges
each link's and each node's windows (overlapping or touching ones
join) into the table. The plan itself keeps every window as written.

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
from typing import Dict, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.net.failures import FailureTable
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


def _node_ids(nodes: Sequence[int], what: str) -> Tuple[int, ...]:
    """``nodes`` deduplicated and sorted; refuses an empty or negative set."""
    ids = tuple(sorted(set(int(i) for i in nodes)))
    if not ids:
        raise WorkloadError(f"{what} needs at least one node")
    if ids[0] < 0:
        raise WorkloadError(f"{what} ids must be >= 0")
    return ids


def _window(start: float, end: float, what: str) -> Tuple[float, float]:
    if end <= start:
        raise WorkloadError(f"bad {what} window [{start}, {end})")
    return float(start), float(end)


def _merged(windows: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """``windows`` sorted, with overlapping or touching ones joined."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


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
    #: Partition cuts as ``(start, end, side_a, side_b)``, each side a
    #: sorted tuple of node ids, in the order they were written.
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

        Sides must be non-empty and disjoint; a single link is the cut
        ``(a,), (b,)``. Windows may overlap or repeat earlier ones: the
        compiled table merges each link's windows.
        """
        lo, hi = _window(start, end, "partition")
        a, b = _node_ids(side_a, "partition side"), _node_ids(side_b, "partition side")
        if set(a) & set(b):
            raise WorkloadError("partition sides must be disjoint")
        self.cuts.append((lo, hi, a, b))
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
        lo, hi = _window(start, end, "outage")
        self.node_outages.append((lo, hi, _node_ids(nodes, "node outage")))
        return self

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def failure_table(self, n: int) -> FailureTable:
        """The partition cuts and node outages compiled to outage windows.

        Pass the result to ``build_overlay(..., failures=...)`` (the
        crash/restore/churn events are not part of it — they are
        simulator events installed later). Every node id must be below
        ``n``.
        """
        links: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        for start, end, side_a, side_b in self.cuts:
            for i in side_a:
                for j in side_b:
                    links.setdefault((min(i, j), max(i, j)), []).append((start, end))
        nodes: Dict[int, List[Tuple[float, float]]] = {}
        for start, end, ids in self.node_outages:
            for node in ids:
                nodes.setdefault(node, []).append((start, end))
        bad = [i for pair in links for i in pair if i >= n] + [i for i in nodes if i >= n]
        if bad:
            raise WorkloadError(f"fault node {max(bad)} out of range for n={n}")
        return FailureTable(
            n,
            [(i, j, s, e) for (i, j), spans in links.items() for s, e in _merged(spans)],
            [(node, s, e) for node, spans in nodes.items() for s, e in _merged(spans)],
        )

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
