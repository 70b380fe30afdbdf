"""§2 related-work comparison: random intermediaries (SOSR) vs optimal.

The paper's motivation study (§2, around Figure 1) argues:

* for **availability**, picking from as few as four random intermediaries
  works well (Gummadi et al.'s SOSR result) — one-hop source routing
  through almost anyone dodges most single link failures;
* for **latency**, random intermediaries work poorly: the good detours
  are concentrated in the top few percent of candidates, so a scalable
  overlay must *find* the best one-hop rather than sample.

This experiment measures both claims directly on the synthetic underlay:
availability under injected failures (direct vs random-k vs optimal
one-hop) and latency repair of high-latency pairs (random-k vs best).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.core.onehop import best_one_hop_all_pairs
from repro.errors import ConfigError
from repro.experiments.fig1_onehop_cdf import THRESHOLD_MS
from repro.net.failures import build_failure_table
from repro.net.trace import planetlab_like

__all__ = [
    "AvailabilityResult",
    "LatencyRepairResult",
    "run_availability_comparison",
    "run_latency_repair_comparison",
    "format_related_work",
]

#: How many random intermediaries each SOSR-style policy draws.
AVAILABILITY_RANDOM_K: Sequence[int] = (1, 4)
LATENCY_RANDOM_K: Sequence[int] = (1, 4, 16)
#: Length of the failure process the availability samples fall in.
HORIZON_S = 3600.0


@dataclass
class AvailabilityResult:
    """Path availability of each policy over (pair, time) samples."""

    n: int
    samples: int
    availability: Dict[str, float]

    def improvement_factor(self, policy: str) -> float:
        """Reduction in *unavailability* relative to the direct path."""
        direct_down = 1.0 - self.availability["direct"]
        policy_down = 1.0 - self.availability[policy]
        if policy_down <= 0.0:
            return float("inf")
        return direct_down / policy_down


@dataclass
class LatencyRepairResult:
    """Fraction of high-latency pairs repaired below the threshold."""

    n: int
    threshold_ms: float
    high_latency_pairs: int
    repaired: Dict[str, float]


def run_availability_comparison(
    n: int = 100,
    seed: int = 51,
    num_times: int = 40,
    num_pairs: int = 600,
) -> AvailabilityResult:
    """Sample (pair, time) availability for each routing policy.

    Policies: the direct path; SOSR-style best-effort through ``k``
    random intermediaries (works iff any has both legs up); the optimal
    one-hop policy (works iff *any* intermediary has both legs up —
    what the quorum protocol achieves with full information).
    """
    if num_times < 1 or num_pairs < 1:
        raise ConfigError("need at least one time and pair sample")
    rng = np.random.default_rng(seed)
    failures = build_failure_table(n, HORIZON_S, rng)

    times = rng.uniform(HORIZON_S * 0.1, HORIZON_S * 0.9, size=num_times)
    pair_src = rng.integers(0, n, size=num_pairs)
    pair_dst = rng.integers(0, n, size=num_pairs)
    valid = pair_src != pair_dst
    pair_src, pair_dst = pair_src[valid], pair_dst[valid]

    policies = ["direct"] + [f"random_{k}" for k in AVAILABILITY_RANDOM_K] + ["best_one_hop"]
    up_samples: Dict[str, List[bool]] = {p: [] for p in policies}

    for t in times:
        up_rows = failures.up_matrix(float(t))
        for i, j in zip(pair_src, pair_dst):
            i, j = int(i), int(j)
            up_samples["direct"].append(bool(up_rows[i, j]))
            # candidate intermediaries with both legs up
            both = up_rows[i] & up_rows[:, j]
            both[i] = both[j] = False
            up_samples["best_one_hop"].append(
                bool(up_rows[i, j] or both.any())
            )
            for k in AVAILABILITY_RANDOM_K:
                picks = rng.integers(0, n, size=k)
                ok = bool(up_rows[i, j]) or any(
                    bool(both[int(h)]) for h in picks if h not in (i, j)
                )
                up_samples[f"random_{k}"].append(ok)

    availability = {p: float(np.mean(v)) for p, v in up_samples.items()}
    return AvailabilityResult(
        n=n, samples=len(up_samples["direct"]), availability=availability
    )


def run_latency_repair_comparison(
    n: int = 359,
    seed: int = 2005,
    trials: int = 25,
) -> LatencyRepairResult:
    """How often each policy repairs a pair above :data:`THRESHOLD_MS`
    below it.

    Random-k policies average over ``trials`` random draws per pair.
    """
    rng = np.random.default_rng(seed)
    trace = planetlab_like(n, rng)
    w = trace.rtt_ms
    iu = np.triu_indices(n, 1)
    high = w[iu] > THRESHOLD_MS
    src, dst = iu[0][high], iu[1][high]

    costs, _ = best_one_hop_all_pairs(w)
    repaired: Dict[str, float] = {
        "best_one_hop": float((costs[iu][high] < THRESHOLD_MS).mean())
    }
    for k in LATENCY_RANDOM_K:
        hits = []
        for i, j in zip(src, dst):
            totals = w[i] + w[:, j]
            wins = 0
            for _ in range(trials):
                picks = rng.integers(0, n, size=k)
                best = min(
                    (totals[int(h)] for h in picks if h not in (i, j)),
                    default=np.inf,
                )
                if min(best, w[i, j]) < THRESHOLD_MS:
                    wins += 1
            hits.append(wins / trials)
        repaired[f"random_{k}"] = float(np.mean(hits))

    return LatencyRepairResult(
        n=n,
        threshold_ms=THRESHOLD_MS,
        high_latency_pairs=int(high.sum()),
        repaired=repaired,
    )


def format_related_work(
    avail: AvailabilityResult, latency: LatencyRepairResult
) -> str:
    rows = []
    for policy, value in avail.availability.items():
        factor = (
            "-"
            if policy == "direct"
            else f"{avail.improvement_factor(policy):.1f}x"
        )
        rows.append([policy, f"{value * 100:.2f}%", factor])
    avail_table = render_table(
        ["policy", "availability", "unavailability_reduction"],
        rows,
        title=(
            f"Availability under injected failures (n={avail.n}, "
            f"{avail.samples} samples)"
        ),
    )
    rows = [
        [policy, f"{frac * 100:.1f}%"]
        for policy, frac in latency.repaired.items()
    ]
    latency_table = render_table(
        ["policy", f"pairs repaired < {latency.threshold_ms:.0f} ms"],
        rows,
        title=(
            f"Latency repair of {latency.high_latency_pairs} high-latency "
            f"pairs (n={latency.n})"
        ),
    )
    return avail_table + "\n\n" + latency_table
