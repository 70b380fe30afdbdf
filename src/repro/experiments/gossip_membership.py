"""Gossip-membership scenario suite: coordinator-free vs replicated plane.

The paper's membership service (§5) is a central coordinator; PR 6
replicated it, but the replicated plane still needs *some* coordinator
alive. The gossip plane (:mod:`repro.overlay.gossip`) removes the role
entirely: every node originates membership ops locally and anti-entropy
reconciliation converges the population. This suite runs the two planes
side by side under **identical member-level fault traces** and compares

* convergence — per-member view-divergence windows
  (:meth:`~repro.overlay.stats.DisruptionRecorder.member_divergence_summary`)
  must all close, with the time of the last window end after the fault
  reported as the convergence time;
* byte cost — the gossip plane's whole traffic (``gossip``) against the
  coordinator plane's view updates *plus* refresh heartbeats
  (``member`` + ``member-ctl``), since gossip subsumes liveness;
* survivability — a total-coordinator-loss fault (every coordinator
  process and host crashes) under which the replicated plane provably
  cannot admit a new member: the join op buffers forever waiting for a
  promotion that can never happen, while the gossip joiner bootstraps
  from any live peer.

Scenarios (each runs once per plane, same seed and node-level trace):

* **rack-crash-outage** — a correlated rack crash
  (:meth:`~repro.workloads.trace.ChurnTrace.correlated_failure`: two
  racks lose power, later reboot) combined with an underlay outage of a
  *third* rack (links down, processes up). The outage rack expires and
  must be readmitted/refuted after the heal; the crashed racks must
  rejoin with fresh incarnations.
* **coordinator-loss** — every coordinator host crash-stops at once and
  a standby node tries to join afterwards. The gossip arm is expected
  to converge (crashes are just expiries); the coordinator arm is
  expected to *fail the join* — its row passes when the joiner never
  starts, demonstrating the single point of failure the gossip plane
  removes.

A converging arm passes when all live started nodes agree on one view
version, no expected member is missing, and no per-member divergence
window, global divergence window, or routing disruption is left open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.tables import render_table
from repro.errors import WorkloadError
from repro.experiments.coordinator_failover import scenario_config
from repro.experiments.replay import MEASURE_FROM_S, run_plan, view_convergence
from repro.overlay.config import Gossip, OverlayConfig
from repro.overlay.coordination import coordinator_hosts
from repro.overlay.harness import Overlay
from repro.overlay.stats import (
    GOSSIP_KINDS,
    KIND_MEMBERSHIP,
    KIND_MEMBERSHIP_CTRL,
    DisruptionRecorder,
)
from repro.workloads.faults import FaultPlan
from repro.workloads.trace import ACTION_FAIL, ChurnTrace

__all__ = [
    "GossipScenarioResult",
    "format_gossip_scenarios",
    "gossip_config",
    "run_gossip_scenarios",
]

PLANE_GOSSIP = "gossip"
PLANE_COORD = "coord-k3"

#: What a row is expected to do; the verdict is judged against this.
EXPECT_CONVERGE = "converge"
EXPECT_NO_JOIN = "no-join"

#: The coordinator plane's comparable byte cost: view updates plus
#: refresh heartbeats, since the gossip digests carry liveness too.
COORD_PLANE_KINDS: Tuple[str, ...] = (KIND_MEMBERSHIP, KIND_MEMBERSHIP_CTRL)


def gossip_config() -> OverlayConfig:
    """The suite's coordinator-free configuration.

    Matches the failover suite's compressed timescale: the 90 s
    membership timeout doubles as the gossip crash-expiry timeout, so
    both planes detect a silent member on the same clock. The push
    rounds are :mod:`repro.overlay.gossip`'s constants.
    """
    return OverlayConfig(membership_timeout_s=90.0, membership=Gossip())


#: Coordinators of the replicated arm, ``scenario_config(COORDINATORS)``.
COORDINATORS = 3


@dataclass
class GossipScenarioResult:
    """Outcome of one (scenario, membership plane) arm."""

    name: str
    plane: str
    expect: str
    n: int
    #: All live started nodes ended on a single view version.
    converged: bool
    members_expected: int
    members_final: int
    #: Expected members absent from the final view or not running.
    missing: Tuple[int, ...]
    #: The scenario's late joiner (coordinator-loss only) and whether it
    #: ended up started.
    joiner: Optional[int]
    joiner_started: Optional[bool]
    #: Seconds from the fault instant to the last closed per-member
    #: divergence window end (0 when no window opened after the fault).
    convergence_s: float
    divergence: Dict[str, float]
    open_divergence: bool
    open_disruptions: int
    min_availability: float
    #: Membership-plane traffic, mean bytes per node per second over the
    #: measurement window (in+out; gossip vs member+member-ctl).
    plane_bytes_node_s: float
    refutes: int
    expiries: int

    @property
    def passed(self) -> bool:
        if self.expect == EXPECT_NO_JOIN:
            # The arm demonstrates the single point of failure: the
            # joiner must never have started, everyone else must be
            # intact and agreed on the (stale) surviving view.
            return (
                self.joiner is not None
                and self.joiner_started is False
                and self.missing == (self.joiner,)
                and self.converged
                and self.divergence["open_members"] == 0
            )
        return (
            self.converged
            and not self.missing
            and self.divergence["open_members"] == 0
            and not self.open_divergence
            and self.open_disruptions == 0
        )


def _run_arm(
    name: str,
    plane: str,
    n: int,
    seed: int,
    plan: FaultPlan,
    duration_s: float,
    fault_at_s: float,
    expect: str = EXPECT_CONVERGE,
    joiner: Optional[int] = None,
    initial_active: Optional[Sequence[int]] = None,
) -> GossipScenarioResult:
    config = gossip_config() if plane == PLANE_GOSSIP else scenario_config(COORDINATORS)
    overlay, recorder = run_plan(
        plan, n, seed, config, duration_s, active_members=initial_active
    )
    return _summarize_arm(
        name, plane, expect, overlay, recorder, fault_at_s, duration_s, joiner
    )


def _summarize_arm(
    name: str,
    plane: str,
    expect: str,
    overlay: Overlay,
    recorder: DisruptionRecorder,
    fault_at_s: float,
    duration_s: float,
    joiner: Optional[int],
) -> GossipScenarioResult:
    view = overlay.membership.view
    converged, missing = view_convergence(overlay, view)
    counters = overlay.membership.counters()
    kinds = GOSSIP_KINDS if plane == PLANE_GOSSIP else COORD_PLANE_KINDS
    div = recorder.member_divergence_summary()
    post_fault_ends = [
        end
        for _, _, end in recorder.member_divergence_windows()
        if end >= fault_at_s
    ]
    convergence_s = (
        max(post_fault_ends) - fault_at_s if post_fault_ends else 0.0
    )
    window_s = duration_s - MEASURE_FROM_S
    plane_bytes = overlay.bandwidth.bytes_per_node(
        kinds, MEASURE_FROM_S, duration_s
    )
    return GossipScenarioResult(
        name=name,
        plane=plane,
        expect=expect,
        n=overlay.n,
        converged=converged,
        members_expected=len(overlay.active),
        members_final=len(view.members),
        missing=missing,
        joiner=joiner,
        joiner_started=(
            overlay.nodes[joiner].started if joiner is not None else None
        ),
        convergence_s=convergence_s,
        divergence=div,
        open_divergence=recorder.open_divergence_since() is not None,
        open_disruptions=recorder.open_disruptions(),
        min_availability=recorder.min_availability(MEASURE_FROM_S),
        plane_bytes_node_s=float(plane_bytes.mean()) / window_s,
        refutes=int(counters.get("refutes", 0)),
        expiries=int(counters.get("expiries", 0)),
    )


# ----------------------------------------------------------------------
# The scenarios
# ----------------------------------------------------------------------
def _rack_layout(n: int, seed: int) -> Tuple[ChurnTrace, Set[int], Tuple[int, ...]]:
    """A correlated rack-crash trace plus a disjoint rack for the outage.

    The crashed racks are drawn from seeds ``seed, seed+1, ...`` until
    they avoid the replicated arm's coordinator hosts — the same
    node-level trace must be replayable on both planes, and a crashed
    coordinator *host* with a live coordinator *process* would be a
    different fault than the one this scenario studies (coordinator
    death is scenario two's job).
    """
    group_size = max(4, n // 8)
    crash_at, reboot_at, duration = 240.0, 480.0, 900.0
    host_set = set(coordinator_hosts(n, COORDINATORS))
    for attempt in range(seed, seed + 256):
        trace = ChurnTrace.correlated_failure(
            n=n,
            group_size=group_size,
            groups_to_fail=2,
            crash_at_s=crash_at,
            duration_s=duration,
            seed=attempt,
            reboot_at_s=reboot_at,
        )
        failed = {ev.node for ev in trace.events if ev.action == ACTION_FAIL}
        if failed & host_set:
            continue
        num_groups = (n + group_size - 1) // group_size
        for g in range(num_groups):
            rack = tuple(range(g * group_size, min((g + 1) * group_size, n)))
            if not (set(rack) & (failed | host_set)):
                return trace, failed, rack
    raise WorkloadError(
        f"no rack layout avoiding coordinator hosts found for n={n}"
    )


def _rack_crash_outage(
    n: int, seed: int, plane: str
) -> GossipScenarioResult:
    """Correlated rack crash + reboot, with a third rack's links cut."""
    trace, _, outage_rack = _rack_layout(n, seed)
    plan = FaultPlan().add_churn(trace)
    plan.node_outage(200.0, 380.0, outage_rack)
    return _run_arm(
        name="rack-crash-outage",
        plane=plane,
        n=n,
        seed=seed,
        plan=plan,
        duration_s=1200.0,
        fault_at_s=200.0,
    )


def _coordinator_loss(
    n: int, seed: int, plane: str
) -> GossipScenarioResult:
    """Every coordinator host (and process) crash-stops; a node joins after.

    Both planes replay the same member-level trace: the three
    coordinator host nodes crash at t=240 and a standby node joins at
    t=300. The coordinator arm additionally crashes the coordinator
    *processes* (they die with their hosts); with no survivor to
    promote, the buffered join can never be applied — the arm passes by
    failing the join. The gossip arm has no such role to lose.
    """
    hosts = coordinator_hosts(n, COORDINATORS)
    joiner = n - 1
    if joiner in hosts:
        raise WorkloadError("joiner collides with a coordinator host")
    plan = FaultPlan()
    for i, host in enumerate(hosts):
        plan.fail_node(240.0 + 0.25 * i, host)
        if plane == PLANE_COORD:
            plan.crash_coordinator(240.0 + 0.25 * i, i)
    plan.join_node(300.0, joiner)
    return _run_arm(
        name="coordinator-loss",
        plane=plane,
        n=n,
        seed=seed,
        plan=plan,
        duration_s=800.0,
        fault_at_s=240.0,
        expect=(
            EXPECT_CONVERGE if plane == PLANE_GOSSIP else EXPECT_NO_JOIN
        ),
        joiner=joiner,
        initial_active=tuple(i for i in range(n) if i != joiner),
    )


def run_gossip_scenarios(
    n: int = 64, seed: int = 42, smoke: bool = False
) -> List[GossipScenarioResult]:
    """Run both scenarios on both planes (4 rows; smoke shrinks n)."""
    if smoke:
        n = min(n, 24)
    results = []
    for plane in (PLANE_GOSSIP, PLANE_COORD):
        results.append(_rack_crash_outage(n, seed, plane))
    for plane in (PLANE_GOSSIP, PLANE_COORD):
        results.append(_coordinator_loss(n, seed, plane))
    return results


def format_gossip_scenarios(
    results: Sequence[GossipScenarioResult],
) -> str:
    rows = []
    for r in results:
        if r.joiner is None:
            joined = "-"
        else:
            joined = "yes" if r.joiner_started else "no"
        rows.append(
            [
                r.name,
                r.plane,
                r.n,
                "yes" if r.converged else "NO",
                f"{r.members_final}/{r.members_expected}",
                joined,
                f"{r.convergence_s:.0f}",
                int(r.divergence["members_affected"]),
                f"{r.divergence['member_max_s']:.0f}",
                int(r.divergence["open_members"]) + int(r.open_disruptions),
                f"{r.plane_bytes_node_s:.1f}",
                r.expiries,
                r.refutes,
                r.expect,
                "pass" if r.passed else "FAIL",
            ]
        )
    return render_table(
        [
            "scenario",
            "plane",
            "n",
            "converged",
            "members",
            "joined",
            "conv_s",
            "div_members",
            "div_max_s",
            "open",
            "B/node/s",
            "expiries",
            "refutes",
            "expect",
            "verdict",
        ],
        rows,
        title=(
            "Coordinator-free membership — gossip anti-entropy vs the "
            "replicated-coordinator plane under identical member-level "
            "fault traces; conv_s = last per-member divergence window "
            "end after the fault; B/node/s compares the whole gossip "
            "plane against member+member-ctl; a no-join row passes by "
            "proving the coordinator plane cannot admit the joiner"
        ),
    )
