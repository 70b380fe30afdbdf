"""The five benchmark workloads: inputs generated from a seed, overlay built.

Every workload is a batch: a fixed generated input (RTT trace, failure
table, churn/fault plan) and a fixed simulated duration; the benchmark
measures the host time and memory the simulator needs to complete it
and the simulated quantities it produces. All inputs are generated here
from ``seed``; the program under test (``repro``) receives only the
generated inputs.

The ``why`` strings are the record of why each workload exists; the
measured layer shares behind them are in ``bench/README.md``.

``build_overlay`` is reached through its module so that a traced run,
which replaces ``harness.build_overlay`` with a span wrapper, sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.coordinator_failover import scenario_config
from repro.experiments.gossip_membership import gossip_config
from repro.net.failures import DEFAULT_CLASS_MIX, NodeClass, build_failure_table
from repro.net.trace import planetlab_like
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay import harness
from repro.workloads.faults import FaultPlan
from repro.workloads.trace import ACTION_FAIL, ACTION_JOIN, ACTION_LEAVE, ChurnEvent, ChurnTrace

#: Period of the ground-truth route-availability samples behind
#: ``route_ok_frac`` (seconds of simulated time).
SAMPLE_PERIOD_S = 5.0
#: Samples before this simulated time are bootstrap (first probe round,
#: first routing tick: no node can have routes yet) and are left out of
#: ``route_ok_frac``; a static overlay reads exactly 1.0 from here on.
WARMUP_S = 15.0


@dataclass
class Built:
    """A ready-to-run overlay plus what the output check needs."""

    overlay: harness.Overlay
    #: Node ids that must be active at the end of the run: the plan's
    #: events replayed symbolically. The output check compares it with
    #: the overlay's own active set, so an event that was not applied shows.
    expected_active: Tuple[int, ...]
    #: Churn/fault member events scheduled on the simulator.
    planned_events: int = 0


def _lossless(n: int, rng: np.random.Generator):
    return planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0)


def _static(router: RouterKind, seed: int, n: int, duration_s: float) -> Built:
    """Lossless, static membership, default config: nothing ever fails."""
    rng = np.random.default_rng(seed)
    overlay = harness.build_overlay(
        trace=_lossless(n, rng),
        router=router,
        rng=rng,
        config=OverlayConfig(),
        with_freshness=False,
    )
    return Built(overlay, tuple(range(n)))


def stratified_node_classes(n: int, rng: np.random.Generator) -> List[NodeClass]:
    """The default GOOD/MEDIOCRE/POOR mix with *fixed* class counts.

    ``assign_node_classes`` draws each node's class independently, so the
    number of POOR nodes (the ones behind most outages) varies from seed
    to seed and with it every route fraction. Here the seed only chooses
    which nodes get which class.
    """
    mediocre = round(DEFAULT_CLASS_MIX[1] * n)
    poor = max(1, round(DEFAULT_CLASS_MIX[2] * n))
    classes = (
        [NodeClass.GOOD] * (n - mediocre - poor)
        + [NodeClass.MEDIOCRE] * mediocre
        + [NodeClass.POOR] * poor
    )
    return [classes[i] for i in rng.permutation(n)]


def _linkfail(seed: int, n: int, duration_s: float) -> Built:
    rng = np.random.default_rng(seed)
    trace = planetlab_like(n, rng)
    classes = stratified_node_classes(n, rng)
    failures = build_failure_table(n, duration_s + 120.0, rng, node_classes=classes)
    overlay = harness.build_overlay(
        trace=trace,
        router=RouterKind.QUORUM,
        rng=rng,
        failures=failures,
        config=OverlayConfig(),
        with_freshness=False,
    )
    return Built(overlay, tuple(range(n)))


def stratified_churn(
    n: int,
    seed: int,
    duration_s: float,
    rate_per_s: float = 0.2,
    active_fraction: float = 0.75,
) -> ChurnTrace:
    """Sustained churn with a fixed event count and a stationary population.

    ``ChurnTrace.poisson`` draws the event count, the join/depart mix and
    the crash share at random; at ~24 events per run that makes the
    population, and with it ``control_kbps_node``, differ by 8 % between
    seeds (input variance, not noise). This trace has the same rate and
    the same 50 % crash share but one event per equal time slot
    (jittered inside it), departures and joins alternating, crashes and
    graceful leaves alternating; the seed chooses the nodes and times.
    """
    rng = np.random.default_rng(seed)
    warmup_s = min(30.0, duration_s / 2.0)
    initial = sorted(
        rng.choice(n, size=round(active_fraction * n), replace=False).tolist()
    )
    active = list(initial)
    standby = sorted(set(range(n)) - set(initial))
    count = max(2, round(rate_per_s * (duration_s - warmup_s)))
    slot_s = (duration_s - warmup_s) / count
    events = []
    for i in range(count):
        time = warmup_s + (i + float(rng.uniform(0.1, 0.9))) * slot_s
        if i % 2 == 0:
            node = active.pop(int(rng.integers(len(active))))
            standby.append(node)
            action = ACTION_FAIL if i % 4 == 0 else ACTION_LEAVE
        else:
            node = standby.pop(int(rng.integers(len(standby))))
            active.append(node)
            action = ACTION_JOIN
        events.append(ChurnEvent(time=time, action=action, node=node))
    return ChurnTrace(
        n=n, initial_active=tuple(initial), events=tuple(events), duration_s=duration_s
    )


def _churn(seed: int, n: int, duration_s: float) -> Built:
    rng = np.random.default_rng(seed)
    churn = stratified_churn(n, seed, duration_s)
    plan = FaultPlan().add_churn(churn)
    overlay = harness.build_overlay(
        trace=_lossless(n, rng),
        router=RouterKind.QUORUM,
        rng=rng,
        config=scenario_config(k=3),
        with_freshness=False,
        active_members=churn.initial_active,
    )
    plan.install(overlay)
    return Built(overlay, churn.active_at_end(), len(plan.member_events))


def _gossip_rack(seed: int, n: int, duration_s: float) -> Built:
    # Rack crash at 20 %, link outage of a third rack from 17 % to 33 %,
    # reboot at 53 % of the run: the rest is reconvergence.
    group = max(4, n // 8)
    churn = ChurnTrace.correlated_failure(
        n=n,
        group_size=group,
        groups_to_fail=2,
        crash_at_s=0.20 * duration_s,
        reboot_at_s=0.53 * duration_s,
        duration_s=0.75 * duration_s,
        seed=seed,
    )
    crashed = {ev.node for ev in churn.events}
    num_groups = (n + group - 1) // group
    outage_rack = next(
        rack
        for rack in (
            tuple(range(g * group, min((g + 1) * group, n))) for g in range(num_groups)
        )
        if not crashed & set(rack)
    )
    plan = FaultPlan().add_churn(churn)
    plan.node_outage(0.17 * duration_s, 0.33 * duration_s, outage_rack)
    rng = np.random.default_rng(seed)
    overlay = harness.build_overlay(
        trace=_lossless(n, rng),
        router=RouterKind.QUORUM,
        rng=rng,
        config=gossip_config(),
        failures=plan.failure_table(n),
        with_freshness=False,
    )
    plan.install(overlay)
    return Built(overlay, churn.active_at_end(), len(plan.member_events))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    duration_s: float
    build: Callable[[int, int, float], Built]
    #: Lowest acceptable ``(route_ok_frac, route_opt_frac)`` at the
    #: workload's own size: 0.05 below the lowest seen over 20 seeds.
    #: ``None`` means no link ever fails, so both must be exactly 1.0.
    route_floor: Optional[Tuple[float, float]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady_n256",
            why=(
                "static lossless quorum overlay from bootstrap to steady state: router_quorum "
                "tick/recommendation work and failover bookkeeping dominate host time and RSS"
            ),
            n=256,
            duration_s=45.0,
            build=partial(_static, RouterKind.QUORUM),
        ),
        Workload(
            name="linkfail_n160",
            why=(
                "default loss plus the Fig. 8 outage process: rapid probes, on_link_down and "
                "FailoverManager.poll adopt/retire; the workload where route fractions sit below 1"
            ),
            n=160,
            duration_s=120.0,
            build=_linkfail,
            route_floor=(0.90, 0.89),
        ),
        Workload(
            name="churn_n160",
            why=(
                "sustained join/leave/crash under 3 replicated coordinators with view deltas: grid "
                "insert/remove, table remap and set_grid writes interleaved with tick reads"
            ),
            n=160,
            duration_s=150.0,
            build=_churn,
            route_floor=(0.92, 0.89),
        ),
        Workload(
            name="gossip_rack_n64",
            why=(
                "coordinator-free gossip membership through a two-rack crash, a third rack's link "
                "outage and the reboot: the only workload running overlay/gossip.py"
            ),
            n=64,
            duration_s=450.0,
            build=_gossip_rack,
            route_floor=(0.88, 0.95),
        ),
        Workload(
            name="fullmesh_n192",
            why=(
                "full-mesh router on the same simulator, transport and monitor: n^2 row broadcasts, "
                "no grid or failover; the bypass workload for every quorum optimisation"
            ),
            n=192,
            duration_s=180.0,
            build=partial(_static, RouterKind.FULL_MESH),
        ),
    )
}
