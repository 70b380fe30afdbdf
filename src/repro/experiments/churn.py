"""Churn experiments: dynamic membership under load (workload extension).

The paper's evaluation (§6) runs on an essentially static membership.
These experiments drive the §5 membership machinery hard, replaying
*identical* deterministic churn traces against both routing algorithms:

* **Sustained churn** — Poisson join/leave/crash processes at a given
  rate; reports route availability and the disruption-duration CDF.
* **Mass failure** — crash a fraction ``p`` of the overlay at one
  instant; reports the availability dip and the time to full recovery
  among survivors.
* **Flash crowd** — a burst of simultaneous joins; reports how long the
  newcomers take to become fully routable.
* **Lossy in-band membership** — the same Poisson churn on a lossy
  underlay, once with out-of-band (reliable callback) membership and
  once with ``membership=InBand(...)``: view updates travel the wire,
  get lost, and are repaired via refresh piggybacks. Reports routing
  availability side by side with the new view-divergence metric
  (windows where live nodes held different view versions, and the
  routing disagreement inside them).

Unless a caller overrides ``config``, churn runs default to delta
publication with in-band wire delivery
(``membership=InBand(deltas=True)``) — the hardened plane a deployment
would actually run; the explicit in-band comparison above keeps its own
side-by-side configs.

"Disrupted" is judged against ground truth: a pair counts as disrupted
while the source's *chosen* route does not actually work on the current
underlay (for example, it still forwards through a crashed node). The
quantities come from :class:`~repro.overlay.stats.DisruptionRecorder`
samples taken every 5 virtual seconds. Every run replays its trace as a
:class:`~repro.workloads.faults.FaultPlan` through
:func:`~repro.experiments.replay.run_plan`; recovery is measured from
the trace's first crash (a flash crowd: from the burst).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import render_table
from repro.experiments.membership_scaling import IN_BAND_LOSS
from repro.experiments.replay import run_plan
from repro.overlay.config import InBand, OutOfBand, OverlayConfig, RouterKind
from repro.overlay.harness import Overlay
from repro.overlay.stats import DisruptionRecorder
from repro.workloads import ChurnTrace, FaultPlan

__all__ = [
    "ChurnRunStats",
    "ChurnComparisonResult",
    "FlashCrowdResult",
    "InBandChurnResult",
    "MassFailureResult",
    "run_churn_run",
    "run_churn_comparison",
    "run_flash_crowd",
    "run_in_band_churn",
    "run_mass_failure_sweep",
]

ROUTERS: Tuple[RouterKind, ...] = (RouterKind.QUORUM, RouterKind.FULL_MESH)


def _default_churn_config() -> OverlayConfig:
    """Default membership plane for the churn experiments.

    Churn runs now exercise the hardened plane by default: view *deltas*
    (not full views) and *in-band* wire delivery, the combination every
    real deployment would run. The underlays here are lossless, so the
    comparison against the out-of-band callback numbers isolates pure
    delivery latency; pass an explicit ``config`` to reproduce the old
    out-of-band tables.
    """
    return OverlayConfig(membership=InBand(deltas=True))


@dataclass
class ChurnRunStats:
    """Summary of one (router, churn trace) run."""

    router: str
    n: int
    num_joins: int
    num_leaves: int
    num_fails: int
    mean_availability: float
    min_availability: float
    num_disruptions: int
    disruption_p50_s: float
    disruption_p90_s: float
    disruption_p99_s: float
    disruption_max_s: float
    recovery_s: Optional[float]  # after the first crash (or the flash crowd)

    @property
    def recovered(self) -> bool:
        return self.recovery_s is not None


def _percentile(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q)) if durations.size else 0.0


def _run_stats(
    overlay: Overlay,
    recorder: DisruptionRecorder,
    trace: ChurnTrace,
    measure_from_s: float,
    recover_from_s: Optional[float] = None,
) -> ChurnRunStats:
    """Summarize one replay; recovery counts from ``recover_from_s``,
    by default the trace's first crash (none: no recovery time)."""
    times, avail = recorder.availability_series()
    window = times >= measure_from_s
    durations = recorder.disruption_durations(measure_from_s)
    origins = (recover_from_s,) if recover_from_s is not None else trace.fail_times()
    recovery = recorder.recovery_time_after(origins[0]) if origins else None
    return ChurnRunStats(
        router=overlay.router_kind.value,
        n=trace.n,
        num_joins=trace.count("join"),
        num_leaves=trace.count("leave"),
        num_fails=trace.count("fail"),
        mean_availability=float(avail[window].mean()) if window.any() else 1.0,
        min_availability=recorder.min_availability(measure_from_s),
        num_disruptions=int(durations.size),
        disruption_p50_s=_percentile(durations, 50),
        disruption_p90_s=_percentile(durations, 90),
        disruption_p99_s=_percentile(durations, 99),
        disruption_max_s=float(durations.max()) if durations.size else 0.0,
        recovery_s=recovery,
    )


def run_churn_run(
    churn: ChurnTrace,
    router: RouterKind,
    seed: int,
    settle_s: float = 180.0,
    measure_from_s: float = 60.0,
    config: Optional[OverlayConfig] = None,
) -> ChurnRunStats:
    """Replay one churn trace on a fresh overlay and summarize it."""
    overlay, recorder = run_plan(
        FaultPlan().add_churn(churn),
        churn.n,
        seed,
        config if config is not None else _default_churn_config(),
        churn.duration_s + settle_s,
        router=router,
        active_members=churn.initial_active,
    )
    return _run_stats(overlay, recorder, churn, measure_from_s)


# ----------------------------------------------------------------------
# Experiment 1: quorum vs full mesh under identical churn traces
# ----------------------------------------------------------------------
@dataclass
class ChurnComparisonResult:
    """Both routers replaying the same Poisson churn trace."""

    trace_summary: str
    rate_per_s: float
    duration_s: float
    rows: List[ChurnRunStats]

    def format_table(self) -> str:
        rows = [
            [
                s.router,
                s.num_joins,
                s.num_leaves,
                s.num_fails,
                f"{s.mean_availability:.4f}",
                f"{s.min_availability:.4f}",
                s.num_disruptions,
                f"{s.disruption_p50_s:.1f}",
                f"{s.disruption_p90_s:.1f}",
                f"{s.disruption_max_s:.1f}",
            ]
            for s in self.rows
        ]
        return render_table(
            [
                "router",
                "joins",
                "leaves",
                "crashes",
                "avail_mean",
                "avail_min",
                "disruptions",
                "p50_s",
                "p90_s",
                "max_s",
            ],
            rows,
            title=(
                "Churn comparison — identical Poisson churn trace "
                f"(rate {self.rate_per_s:g}/s over {self.duration_s:g}s): "
                + self.trace_summary
            ),
        )


def run_churn_comparison(
    n: int = 64,
    rate_per_s: float = 0.05,
    duration_s: float = 300.0,
    seed: int = 42,
    crash_fraction: float = 0.5,
    settle_s: float = 180.0,
    config: Optional[OverlayConfig] = None,
) -> ChurnComparisonResult:
    """Both algorithms under one identical sustained-churn trace."""
    churn = ChurnTrace.poisson(
        n=n,
        rate_per_s=rate_per_s,
        duration_s=duration_s,
        seed=seed,
        crash_fraction=crash_fraction,
        warmup_s=60.0,
    )
    rows = [
        run_churn_run(churn, router, seed=seed, settle_s=settle_s, config=config)
        for router in ROUTERS
    ]
    return ChurnComparisonResult(
        trace_summary=churn.describe(),
        rate_per_s=rate_per_s,
        duration_s=duration_s,
        rows=rows,
    )


# ----------------------------------------------------------------------
# Experiment 2: recovery time vs mass-failure fraction
# ----------------------------------------------------------------------
@dataclass
class MassFailureResult:
    """Recovery measurements for coordinated mass failures."""

    n: int
    fail_at_s: float
    rows: List[Tuple[float, ChurnRunStats]]  # (failed fraction, stats)

    def format_table(self) -> str:
        rows = []
        for frac, s in self.rows:
            rows.append(
                [
                    f"{frac:.2f}",
                    s.router,
                    s.num_fails,
                    f"{s.min_availability:.4f}",
                    "yes" if s.recovered else "NO",
                    f"{s.recovery_s:.1f}" if s.recovery_s is not None else "-",
                ]
            )
        return render_table(
            [
                "failed_frac",
                "router",
                "nodes_failed",
                "avail_min",
                "recovered",
                "recovery_s",
            ],
            rows,
            title=(
                f"Mass failure — crash p*n of {self.n} nodes at "
                f"t={self.fail_at_s:g}s; recovery = availability among "
                "survivors back to 100%"
            ),
        )

    def stats_for(self, fraction: float, router: str) -> ChurnRunStats:
        for frac, s in self.rows:
            if abs(frac - fraction) < 1e-9 and s.router == router:
                return s
        raise KeyError(f"no run for fraction={fraction} router={router}")


def run_mass_failure_sweep(
    n: int = 64,
    fractions: Sequence[float] = (0.125, 0.25, 0.5),
    seed: int = 42,
    fail_at_s: float = 240.0,
    settle_s: float = 300.0,
    config: Optional[OverlayConfig] = None,
) -> MassFailureResult:
    """Crash ``p`` of the overlay at one instant, for several ``p``."""
    rows: List[Tuple[float, ChurnRunStats]] = []
    for frac in fractions:
        churn = ChurnTrace.mass_failure(
            n=n,
            fraction=frac,
            at_s=fail_at_s,
            duration_s=fail_at_s + 60.0,
            seed=seed,
        )
        for router in ROUTERS:
            stats = run_churn_run(
                churn,
                router,
                seed=seed,
                settle_s=settle_s,
                measure_from_s=fail_at_s,
                config=config,
            )
            rows.append((frac, stats))
    return MassFailureResult(n=n, fail_at_s=fail_at_s, rows=rows)


# ----------------------------------------------------------------------
# Experiment 3: flash crowd
# ----------------------------------------------------------------------
@dataclass
class FlashCrowdResult:
    """A join burst: how long until the newcomers are fully routable."""

    n: int
    count: int
    at_s: float
    rows: List[ChurnRunStats]

    def format_table(self) -> str:
        rows = [
            [
                s.router,
                self.count,
                f"{s.min_availability:.4f}",
                f"{s.recovery_s:.1f}" if s.recovery_s is not None else "-",
                s.num_disruptions,
                f"{s.disruption_p90_s:.1f}",
            ]
            for s in self.rows
        ]
        return render_table(
            [
                "router",
                "joiners",
                "avail_min",
                "settle_s",
                "disruptions",
                "p90_s",
            ],
            rows,
            title=(
                f"Flash crowd — {self.count} nodes join an overlay of "
                f"{self.n - self.count} within 5s at t={self.at_s:g}s; "
                "settle = availability back to 100%"
            ),
        )


def run_flash_crowd(
    n: int = 64,
    count: Optional[int] = None,
    seed: int = 42,
    at_s: float = 240.0,
    settle_s: float = 240.0,
    config: Optional[OverlayConfig] = None,
) -> FlashCrowdResult:
    """A quarter of the overlay (by default) arrives within 5 seconds."""
    config = config if config is not None else _default_churn_config()
    count = count if count is not None else max(1, n // 4)
    churn = ChurnTrace.flash_crowd(
        n=n, count=count, at_s=at_s, duration_s=at_s + 60.0, seed=seed
    )
    rows = []
    for router in ROUTERS:
        overlay, recorder = run_plan(
            FaultPlan().add_churn(churn),
            n,
            seed,
            config,
            churn.duration_s + settle_s,
            router=router,
            active_members=churn.initial_active,
        )
        rows.append(_run_stats(overlay, recorder, churn, at_s, at_s))
    return FlashCrowdResult(n=n, count=count, at_s=at_s, rows=rows)


# ----------------------------------------------------------------------
# Experiment 4: lossy in-band membership vs the out-of-band shortcut
# ----------------------------------------------------------------------
@dataclass
class InBandChurnResult:
    """Identical lossy churn, membership out-of-band vs on the wire.

    Each row carries the usual churn summary plus the view-divergence
    summary and the coordinator's reliability counters.
    """

    n: int
    rate_per_s: float
    duration_s: float
    loss: float
    rows: List[Tuple[str, ChurnRunStats, Dict[str, float], Dict[str, int]]]

    def stats_for(self, mode: str) -> Tuple[ChurnRunStats, Dict[str, float]]:
        for name, stats, divergence, _ in self.rows:
            if name == mode:
                return stats, divergence
        raise KeyError(f"no run for mode={mode}")

    def format_table(self) -> str:
        rows = []
        for mode, s, div, counters in self.rows:
            disagreement = div["disagreement"]
            rows.append(
                [
                    mode,
                    f"{s.mean_availability:.4f}",
                    f"{s.min_availability:.4f}",
                    s.num_disruptions,
                    f"{s.disruption_p90_s:.1f}",
                    int(div["windows"]),
                    f"{div['max_s']:.0f}",
                    f"{div['total_s']:.0f}",
                    (
                        f"{disagreement:.3f}"
                        if disagreement == disagreement  # not NaN
                        else "-"
                    ),
                    counters.get("refresh_repairs", 0),
                    "yes" if not div["open"] else "NO",
                ]
            )
        return render_table(
            [
                "membership",
                "avail_mean",
                "avail_min",
                "disruptions",
                "p90_s",
                "div_windows",
                "div_max_s",
                "div_total_s",
                "disagreement",
                "repairs",
                "reconverged",
            ],
            rows,
            title=(
                "Lossy in-band membership — identical Poisson churn "
                f"(n={self.n}, rate {self.rate_per_s:g}/s over "
                f"{self.duration_s:g}s) on an underlay with "
                f"{100.0 * self.loss:g}% per-packet loss; quorum router; "
                "'in-band' puts view updates on that wire (coordinator "
                "endpoint at node 0) with refresh-piggyback repair; "
                "div_* / disagreement come from the view-divergence "
                "metric; reconverged = no divergence window left open"
            ),
        )


def run_in_band_churn(
    n: int = 64,
    rate_per_s: float = 0.05,
    duration_s: float = 300.0,
    seed: int = 42,
    loss: float = IN_BAND_LOSS,
    settle_s: float = 180.0,
    measure_from_s: float = 60.0,
) -> InBandChurnResult:
    """Quorum-router churn on a lossy underlay, out-of-band vs in-band.

    Both runs share the trace, the underlay, and every config knob
    except the membership plane, so any availability difference is
    attributable to membership delivery riding the same lossy wire.
    The membership timeout is shortened so heartbeat repairs (timeout/3)
    actually occur within the run.
    """
    churn = ChurnTrace.poisson(
        n=n,
        rate_per_s=rate_per_s,
        duration_s=duration_s,
        seed=seed,
        crash_fraction=0.5,
        warmup_s=60.0,
    )
    rows = []
    for mode, plane in (
        ("out-of-band", OutOfBand(deltas=True)),
        ("in-band", InBand(deltas=True)),
    ):
        overlay, recorder = run_plan(
            FaultPlan().add_churn(churn),
            n,
            seed,
            OverlayConfig(membership=plane, membership_timeout_s=300.0),
            churn.duration_s + settle_s,
            active_members=churn.initial_active,
            loss=loss,
        )
        rows.append(
            (
                mode,
                _run_stats(overlay, recorder, churn, measure_from_s),
                recorder.view_divergence_summary(),
                overlay.membership.counters(),
            )
        )
    return InBandChurnResult(
        n=n, rate_per_s=rate_per_s, duration_s=duration_s, loss=loss, rows=rows
    )
