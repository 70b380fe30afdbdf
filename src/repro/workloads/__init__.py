"""Dynamic-membership workloads for the overlay: churn traces and fault plans.

The paper's §5 membership service supports joins, leaves, and refresh
expiry, but the original evaluation (§6) runs on an essentially static
population. This package exercises the *dynamic* side at scale: it
drives scheduled membership events — sustained churn, coordinated mass
failures, flash-crowd join bursts — against a running
:class:`~repro.overlay.harness.Overlay`, entirely through the
deterministic discrete-event :class:`~repro.net.simulator.Simulator`, so
every run is reproducible from its seeds.

Layout
------
:mod:`repro.workloads.trace`
    :class:`ChurnTrace` — a materialized, validated schedule of
    :class:`ChurnEvent` s (who joins/leaves/crashes, and when), plus the
    three generator families: ``poisson`` (sustained churn with a
    configurable crash fraction), ``mass_failure`` (fail a fraction of
    the overlay at one instant), and ``flash_crowd`` (a join burst).
    Traces are generated ahead of the run so two router kinds can replay
    *identical* churn.

:mod:`repro.workloads.faults`
    :class:`FaultPlan` — the one schedule of faults an overlay is given:
    member crash/join/leave events (a whole trace through ``add_churn``),
    coordinator crash/restore, partitions and node outages. ``install``
    validates the plan against the overlay and schedules each member
    event on the simulator, applied through the overlay's lifecycle API
    (``join_node`` / ``leave_node`` / ``fail_node``). :func:`replay` is
    the driver: it installs a plan, attaches the
    :class:`~repro.overlay.stats.DisruptionRecorder` that measures
    per-pair route availability, disruption durations, and
    time-to-recover across view transitions, and runs the simulator.

Semantics worth knowing
-----------------------
* A **leave** is graceful: the membership service bumps the view at
  once, and the node's timers and transport binding are torn down.
* A **fail** (crash) is silent: peers must detect it by probing, and the
  membership service only learns via refresh expiry — exactly the §5
  division of labor between failover and membership.
* Crashed nodes may **reboot**: a later join of the same ID is valid.
  If the crashed entry has not yet refresh-expired, the membership
  service evicts it so the re-join is clean (``evict``); after expiry
  the node simply joins again.
* Disruption is judged against **ground truth**: a pair counts as
  disrupted while the source's chosen route does not actually work on
  the current underlay (e.g. it still points through a crashed node).

Quick start::

    from repro.overlay.harness import build_overlay
    from repro.workloads import ChurnTrace, FaultPlan, replay

    churn = ChurnTrace.mass_failure(n=64, fraction=0.25, at_s=300.0,
                                    duration_s=600.0, seed=7)
    overlay = build_overlay(n=64, active_members=churn.initial_active)
    recorder = replay(overlay, FaultPlan().add_churn(churn), until_s=780.0)
    print(recorder.recovery_time_after(300.0))

The `churn`, `failover` and `gossip` CLI subcommands
(:mod:`repro.experiments.churn`, :mod:`~repro.experiments.coordinator_failover`,
:mod:`~repro.experiments.gossip_membership`) build their results tables
on top of these pieces, each run through
:func:`repro.experiments.replay.run_plan`.
"""

from repro.workloads.faults import FaultPlan, replay
from repro.workloads.trace import (
    ACTION_FAIL,
    ACTION_JOIN,
    ACTION_LEAVE,
    ChurnEvent,
    ChurnTrace,
)

__all__ = [
    "ACTION_FAIL",
    "ACTION_JOIN",
    "ACTION_LEAVE",
    "ChurnEvent",
    "ChurnTrace",
    "FaultPlan",
    "replay",
]
