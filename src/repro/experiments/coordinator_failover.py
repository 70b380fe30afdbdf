"""Coordinator-failover scenario suite: kill the membership plane.

The paper's coordinator (§5) is a single point of failure the
evaluation never stresses. With ``membership=Replicated(...)`` the repo
replicates the view log across a ring of coordinator endpoints; this
suite injects the three membership-plane faults that replication must
survive, and measures convergence with the per-member view-divergence
windows of :class:`~repro.overlay.stats.DisruptionRecorder`:

* **primary-crash-mid-batch** — a join opens the coordinator's
  ``notify_batch_s`` window and the primary crash-stops before the
  flush, losing the buffered view change. A backup must promote (next
  epoch), the joiner's ring walk must find it, and the lost join must
  be recovered through refresh readmission. The dead coordinator later
  restarts and resyncs as a backup.
* **partitioned-primary** — the primary's host is cut off from every
  member and every replica. Routing degrades gracefully on the stale
  view (the expiry grace multiplier prevents the isolated primary from
  mass-expiring the silent membership), a replica promotes and the
  members fail over; after the heal the fencing rule demotes the old
  primary and the transiently-expired member is readmitted.
* **split-brain** — the overlay is partitioned so each side keeps a
  coordinator and some members: the old primary keeps publishing
  (epoch ``e``) to its side while a promoted replica publishes a
  *conflicting* concurrent view (epoch ``e+1``) to the other. The
  epoch rule — views order by ``(epoch, version)``, ties fenced by
  address — must converge everyone onto the higher epoch after the
  heal, with every wrongly-expelled member readmitted.

A scenario passes when every expected member ends up started and in
the final view, all live nodes agree on one ``(epoch, version)``, no
per-member divergence window and no routing disruption is left open,
and the longest divergence window stays under the scenario's bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.experiments.replay import MEASURE_FROM_S, run_plan, view_convergence
from repro.overlay.config import OverlayConfig, Replicated
from repro.overlay.harness import Overlay
from repro.overlay.stats import DisruptionRecorder
from repro.workloads.faults import FaultPlan

__all__ = [
    "FailoverScenarioResult",
    "format_failover_scenarios",
    "run_failover_scenarios",
    "scenario_config",
]

def scenario_config(k: int = 3) -> OverlayConfig:
    """The suite's replicated-membership configuration.

    The membership timeout is compressed (vs the paper's hour-scale
    one) to match :mod:`repro.overlay.coordination`'s ring and replica
    timings, so members heartbeat every ``timeout/3 = 30 s``; view
    deltas are batched over 5 s windows.
    """
    return OverlayConfig(
        membership_timeout_s=90.0,
        membership=Replicated(coordinators=k, deltas=True, notify_batch_s=5.0),
    )


@dataclass
class FailoverScenarioResult:
    """Outcome and fault-tolerance accounting of one scenario run."""

    name: str
    description: str
    n: int
    k: int
    #: All live started nodes ended on a single ``(epoch, version)``.
    converged: bool
    final_epoch: int
    final_version: int
    members_expected: int
    members_final: int
    #: Expected members absent from the final view or not running.
    missing: Tuple[int, ...]
    promotions: int
    demotions: int
    readmissions: int
    node_failovers: int
    node_retries: int
    divergence: Dict[str, float]
    divergence_bound_s: float
    min_availability: float
    open_disruptions: int

    @property
    def passed(self) -> bool:
        return (
            self.converged
            and not self.missing
            and self.members_final == self.members_expected
            and self.divergence["open_members"] == 0
            and self.divergence["member_max_s"] <= self.divergence_bound_s
            and self.open_disruptions == 0
            and self.promotions >= 1
        )


def _run_scenario(
    name: str,
    description: str,
    n: int,
    seed: int,
    plan: FaultPlan,
    duration_s: float,
    divergence_bound_s: float,
    initial_active: Optional[Sequence[int]] = None,
    k: int = 3,
) -> FailoverScenarioResult:
    overlay, recorder = run_plan(
        plan, n, seed, scenario_config(k), duration_s, active_members=initial_active
    )
    return _summarize(
        name, description, overlay, recorder, divergence_bound_s
    )


def _summarize(
    name: str,
    description: str,
    overlay: Overlay,
    recorder: DisruptionRecorder,
    divergence_bound_s: float,
) -> FailoverScenarioResult:
    group = overlay.membership  # scenario_config: the replicated plane
    epoch, version = group.current_epoch_version()
    view = group.view
    converged, missing = view_convergence(overlay, view)
    counters = group.counters()
    div = recorder.member_divergence_summary()
    return FailoverScenarioResult(
        name=name,
        description=description,
        n=overlay.n,
        k=len(group.coordinators),
        converged=converged,
        final_epoch=epoch,
        final_version=version,
        members_expected=len(overlay.active),
        members_final=len(view.members),
        missing=missing,
        promotions=counters.get("promotions", 0),
        demotions=counters.get("demotions", 0),
        readmissions=counters.get("readmissions", 0),
        node_failovers=counters["node_failovers"],
        node_retries=counters["node_retries"],
        divergence=div,
        divergence_bound_s=divergence_bound_s,
        min_availability=recorder.min_availability(MEASURE_FROM_S),
        open_disruptions=recorder.open_disruptions(),
    )


# ----------------------------------------------------------------------
# The scenarios
# ----------------------------------------------------------------------
def _crash_mid_batch(n: int, seed: int) -> FailoverScenarioResult:
    """Primary crash with an open batching window (plus later restart).

    The join at t=200 is buffered until t=205; the crash at t=202
    destroys it. The joiner (armed, view-less) must walk the ring to
    the promoted replica and be readmitted from its refresh alone.
    """
    joiner = n - 1
    plan = (
        FaultPlan()
        .join_node(200.0, joiner)
        .crash_coordinator(202.0, 0)
        .restore_coordinator(500.0, 0)
    )
    return _run_scenario(
        name="crash-mid-batch",
        description="primary crashes inside an open notify_batch_s window",
        n=n,
        seed=seed,
        plan=plan,
        duration_s=800.0,
        # Repoint + promotion detection, well under one member timeout.
        divergence_bound_s=120.0,
        initial_active=tuple(i for i in range(n) if i != joiner),
    )


def _partitioned_primary(n: int, seed: int) -> FailoverScenarioResult:
    """The primary's host is isolated from members and replicas alike.

    Long enough (180 s, two member timeouts) that without the expiry
    grace the isolated primary would expire every member; the promoted
    replica also transiently expires the unreachable host-0 member,
    which must be readmitted after the heal.
    """
    plan = FaultPlan().partition(240.0, 420.0, (0,), tuple(range(1, n)))
    return _run_scenario(
        name="partitioned-primary",
        description="primary's host cut from all members and replicas",
        n=n,
        seed=seed,
        plan=plan,
        duration_s=800.0,
        # The isolated member stays diverged for the partition plus a
        # post-heal redirect/readmission round.
        divergence_bound_s=420.0 - 240.0 + 150.0,
        k=3,
    )


def _split_brain(n: int, seed: int) -> FailoverScenarioResult:
    """Conflicting concurrent views from a partitioned coordinator ring.

    Side A keeps the primary and a quarter of the members; side B keeps
    both replicas and the rest. Each side's coordinator expires the
    other side, so two *different* views are authoritative at once —
    at different epochs, which is what lets the heal converge.
    """
    side_a = tuple(range(n // 4))
    side_b = tuple(range(n // 4, n))
    plan = FaultPlan().partition(240.0, 450.0, side_a, side_b)
    return _run_scenario(
        name="split-brain",
        description="each partition side keeps a coordinator and members",
        n=n,
        seed=seed,
        plan=plan,
        duration_s=900.0,
        # Side A diverges from expiry (~90 s in) until post-heal
        # readmission (two heartbeat rounds per member).
        divergence_bound_s=450.0 - 240.0 + 150.0,
        k=3,
    )


def run_failover_scenarios(
    n: int = 48, seed: int = 42, smoke: bool = False
) -> List[FailoverScenarioResult]:
    """Run the suite (all three scenarios; smoke drops split-brain)."""
    if smoke:
        n = min(n, 24)
        return [_crash_mid_batch(n, seed), _partitioned_primary(n, seed)]
    return [
        _crash_mid_batch(n, seed),
        _partitioned_primary(n, seed),
        _split_brain(n, seed),
    ]


def format_failover_scenarios(
    results: Sequence[FailoverScenarioResult],
) -> str:
    rows = []
    for r in results:
        rows.append(
            [
                r.name,
                f"{r.n}/{r.k}",
                f"{r.final_epoch}.{r.final_version}",
                "yes" if r.converged else "NO",
                f"{r.members_final}/{r.members_expected}",
                r.promotions,
                r.readmissions,
                r.node_failovers,
                int(r.divergence["members_affected"]),
                f"{r.divergence['member_max_s']:.0f}",
                f"{r.min_availability:.4f}",
                "pass" if r.passed else "FAIL",
            ]
        )
    return render_table(
        [
            "scenario",
            "n/k",
            "epoch.ver",
            "converged",
            "members",
            "promotions",
            "readmits",
            "failovers",
            "div_members",
            "div_max_s",
            "avail_min",
            "verdict",
        ],
        rows,
        title=(
            "Coordinator failover — replicated membership under injected "
            "faults (quorum router, k coordinators); converged = all live "
            "nodes on one (epoch, version); div_* from the per-member "
            "view-divergence windows; pass additionally requires no open "
            "divergence or disruption window and no member lost"
        ),
    )
