"""§4.1 failure scenarios (Figures 4-7): failover timing.

Three scenarios exercise the failover machinery, each injecting a
targeted set of link failures around a (Src, Dst) pair at a known time
and measuring how long the overlay takes to re-learn a *working* route:

1. direct + best-hop failure            — recover within p + 2r
2. both proximal rendezvous + direct    — recover within p + 2r
3. proximal + remote rendezvous + direct — recover within p + 3r

(p = probing timeout interval, r = routing interval; the paper states the
bounds from the moment of failure detection, so wall-clock bounds add p.)

Figure 7's comparison point — ordinary full-mesh link-state routing
recovers within p + r — is measured the same way on the baseline router.
The quorum system runs r = 15 s against the baseline's 30 s (§5), which
is exactly why the paper halves the quorum routing interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.tables import render_table
from repro.core.onehop import best_one_hop_all_pairs
from repro.errors import ConfigError
from repro.net.trace import SyntheticTrace, uniform_random_metric
from repro.overlay.config import PROBE_INTERVAL_S, OverlayConfig, RouterKind
from repro.overlay.harness import Overlay, build_overlay
from repro.overlay.router_base import SOURCE_RECOMMENDATION
from repro.workloads.faults import FaultPlan

__all__ = [
    "ScenarioResult",
    "ScenarioSetup",
    "build_scenario",
    "run_scenario",
    "run_all_scenarios",
    "format_scenarios",
]


@dataclass
class ScenarioResult:
    """Outcome of one failure scenario."""

    name: str
    router: RouterKind
    src: int
    dst: int
    failed_links: List[Tuple[int, int]]
    t_fail: float
    #: first time any usable working route existed (incl. §4.2 fallback)
    recovered_at: Optional[float]
    #: first time a *recommendation*-sourced working route existed
    rec_recovered_at: Optional[float]
    bound_s: float

    @property
    def recovery_s(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.t_fail

    @property
    def rec_recovery_s(self) -> Optional[float]:
        if self.rec_recovered_at is None:
            return None
        return self.rec_recovered_at - self.t_fail

    @property
    def effective_recovery_s(self) -> Optional[float]:
        """The paper's notion of recovery: for the quorum system, a
        post-failure recommendation with a working hop; for the full-mesh
        baseline (which has no recommendations), the first working route
        chosen from post-detection link state."""
        if self.router is RouterKind.FULL_MESH:
            return self.recovery_s
        return self.rec_recovery_s

    @property
    def within_bound(self) -> bool:
        rec = self.effective_recovery_s
        return rec is not None and rec <= self.bound_s


def _select_geometry(
    n: int, seed: int
) -> Tuple[SyntheticTrace, int, int, Tuple[int, ...], int]:
    """Pick (src, dst) whose default rendezvous pair and best hop are all
    distinct from src/dst and from each other (the Figures 4 geometry)."""
    rng = np.random.default_rng(seed)
    trace = uniform_random_metric(n, rng)
    probe = build_overlay(
        trace=trace,
        router=RouterKind.QUORUM,
        rng=np.random.default_rng(seed),
        with_freshness=False,
    )
    src = 0
    router = probe.nodes[src].router
    _, hops = best_one_hop_all_pairs(trace.rtt_ms)
    for dst in range(n - 1, 0, -1):
        pair = router.failover.default_pair(dst)
        best_c = int(hops[src, dst])
        distinct = {src, dst, best_c} | set(pair)
        if len(pair) == 2 and len(distinct) == 5:
            return trace, src, dst, pair, best_c
    raise ConfigError("no suitable (src, dst) geometry found")


def _watch_recovery(
    overlay,
    src: int,
    dst: int,
    t_fail: float,
    watch_s: float,
    exclude_servers: Tuple[int, ...] = (),
) -> Tuple[Optional[float], Optional[float]]:
    """Run past the failure, sampling Src's route twice a second.

    Returns (first usable working route, first recommendation-sourced
    working route) times. ``exclude_servers`` restricts the second event
    to recommendations from *other* servers — used in scenarios 2/3 to
    pinpoint when the failover rendezvous (rather than a default's stale
    memory) delivered the route.
    """
    topo = overlay.topology
    router = overlay.nodes[src].router
    state: Dict[str, Optional[float]] = {"any": None, "rec": None}
    excluded = set(exclude_servers)

    def check() -> None:
        now = overlay.sim.now
        if now < t_fail:
            return
        route = overlay.nodes[src].route_to(dst)
        if not route.usable or route.hop == dst or route.hop == src:
            return
        hop = route.hop
        works = topo.link_is_up(src, hop, now) and topo.link_is_up(hop, dst, now)
        if not works:
            return
        if state["any"] is None:
            state["any"] = now
        # Control-plane recovery: a recommendation that *arrived after*
        # the failure, from an admissible server, recommends a working
        # hop.
        if (
            state["rec"] is None
            and route.source == SOURCE_RECOMMENDATION
            and float(router.last_rec_times()[dst]) >= t_fail
            and int(router.route_server[dst]) not in excluded
        ):
            state["rec"] = now

    overlay.sim.periodic(0.5, check, phase=0.25)
    overlay.run(t_fail + watch_s)
    return state["any"], state["rec"]


@dataclass(frozen=True)
class ScenarioSetup:
    """A built, not yet run, overlay with one scenario's links failing."""

    overlay: Overlay
    src: int
    dst: int
    #: Src's default rendezvous pair for Dst, (R1, R2).
    pair: Tuple[int, int]
    #: The links that fail at ``t_fail`` and stay down, as ``(i, j)``
    #: with ``i < j``.
    failed_links: List[Tuple[int, int]]


def build_scenario(
    scenario: int, n: int, seed: int, router: RouterKind, t_fail: float
) -> ScenarioSetup:
    """Build the overlay for one of the three §4.1 scenarios (1, 2, or 3),
    its failed links stated as single-node cuts from ``t_fail`` on."""
    if scenario not in (1, 2, 3):
        raise ConfigError(f"scenario must be 1, 2, or 3, got {scenario}")
    trace, src, dst, pair, best_c = _select_geometry(n, seed)
    r1, r2 = pair
    if scenario == 1:
        cuts = [(src, dst), (src, best_c)]
    elif scenario == 2:
        cuts = [(src, dst), (src, r1), (src, r2)]
    else:  # scenario 3: proximal to r1, remote (r2 <-> dst)
        cuts = [(src, dst), (src, r1), (r2, dst)]
    plan = FaultPlan()
    for a, b in cuts:
        plan.partition(t_fail, 1e12, (a,), (b,))
    overlay = build_overlay(
        trace=trace,
        router=router,
        rng=np.random.default_rng(seed),
        failures=plan.failure_table(n),
        with_freshness=False,
    )
    failed = sorted((min(a, b), max(a, b)) for a, b in cuts)
    return ScenarioSetup(overlay, src, dst, (r1, r2), failed)


def run_scenario(
    scenario: int,
    n: int = 49,
    seed: int = 4,
    router: RouterKind = RouterKind.QUORUM,
    warmup_s: float = 150.0,
    watch_s: float = 150.0,
) -> ScenarioResult:
    """Run one of the three §4.1 scenarios (1, 2, or 3)."""
    t_fail = warmup_s
    setup = build_scenario(scenario, n, seed, router, t_fail)
    overlay, src, dst = setup.overlay, setup.src, setup.dst
    overlay.run(t_fail - 1.0)  # converge
    exclude = setup.pair if (scenario in (2, 3) and router is RouterKind.QUORUM) else ()
    recovered_at, rec_recovered_at = _watch_recovery(
        overlay, src, dst, t_fail, watch_s, exclude_servers=exclude
    )

    p = PROBE_INTERVAL_S
    r = OverlayConfig().routing_interval_s(router)
    if router is RouterKind.FULL_MESH:
        bound = p + r
    else:
        bound = p + (3 if scenario == 3 else 2) * r
    return ScenarioResult(
        name=f"scenario-{scenario}",
        router=router,
        src=src,
        dst=dst,
        failed_links=setup.failed_links,
        t_fail=t_fail,
        recovered_at=recovered_at,
        rec_recovered_at=rec_recovered_at,
        bound_s=bound + 10.0,  # delivery/propagation slack
    )


def run_all_scenarios(n: int = 49, seed: int = 4) -> List[ScenarioResult]:
    """All three quorum scenarios plus the full-mesh scenario-1 baseline."""
    results = [run_scenario(s, n=n, seed=seed) for s in (1, 2, 3)]
    results.append(run_scenario(1, n=n, seed=seed, router=RouterKind.FULL_MESH))
    return results


def format_scenarios(results: List[ScenarioResult]) -> str:
    rows = []
    for res in results:
        eff = res.effective_recovery_s
        rows.append(
            [
                res.name,
                res.router.value,
                "-" if res.recovery_s is None else f"{res.recovery_s:.1f}",
                "-" if eff is None else f"{eff:.1f}",
                f"{res.bound_s:.1f}",
                "yes" if res.within_bound else "NO",
            ]
        )
    return render_table(
        [
            "scenario",
            "router",
            "first_working_route_s",
            "control_plane_recovery_s",
            "paper_bound_s",
            "within_bound",
        ],
        rows,
        title="§4.1 failure scenarios — recovery time after injected failure",
    )
