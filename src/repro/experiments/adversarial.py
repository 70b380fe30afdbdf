"""§7 future work: malicious rendezvous nodes, attack and defense.

The paper leaves open how the routing mechanism can resist malicious
rendezvous nodes. This experiment quantifies the problem and one
defense the grid quorum's redundancy enables:

* attack: a fraction of nodes run a traffic-attraction rendezvous that
  recommends *itself* as every pair's best one-hop;
* defense: honest nodes keep recommendations from two distinct
  rendezvous per destination and cross-validate them locally at lookup
  time (``OverlayConfig(verify_recommendations=True)``).

Measured: route stretch (chosen route's true cost over the optimal
one-hop cost) across honest pairs, with and without verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.core.onehop import best_one_hop_all_pairs
from repro.net.trace import uniform_random_metric
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.harness import build_overlay

__all__ = ["AdversarialResult", "run_adversarial", "format_adversarial"]


@dataclass
class AdversarialResult:
    """Route quality under attack, for one defense setting."""

    n: int
    num_malicious: int
    verify: bool
    mean_stretch: float
    p95_stretch: float
    fraction_degraded: float  # stretch > 1.2
    rec_conflicts: int

    def row(self) -> List[object]:
        return [
            self.num_malicious,
            "on" if self.verify else "off",
            f"{self.mean_stretch:.3f}",
            f"{self.p95_stretch:.2f}",
            f"{self.fraction_degraded * 100:.1f}%",
            self.rec_conflicts,
        ]


def _route_stretch(overlay, malicious: set) -> np.ndarray:
    """True cost of each honest pair's chosen route over the optimum."""
    w = np.asarray(overlay.topology.rtt_matrix_ms)
    optimal, _ = best_one_hop_all_pairs(w)
    hops = overlay.route_hops()
    n = overlay.n
    stretches = []
    for i in range(n):
        if i in malicious:
            continue
        for j in range(n):
            if j == i or j in malicious:
                continue
            h = hops[i, j]
            if h < 0:
                continue
            cost = w[i, j] if h in (i, j) else w[i, h] + w[h, j]
            stretches.append(cost / max(optimal[i, j], 1e-9))
    return np.array(stretches)


def run_adversarial(
    n: int = 49,
    num_malicious: int = 3,
    verify: bool = False,
    seed: int = 61,
    duration_s: float = 240.0,
) -> AdversarialResult:
    """Run an overlay with traffic-attraction rendezvous and measure
    honest pairs' route stretch."""
    rng = np.random.default_rng(seed)
    trace = uniform_random_metric(n, rng)
    # Malicious identities are drawn once per seed so verify on/off runs
    # face the same adversary.
    adversary_rng = np.random.default_rng(seed + 1)
    malicious = set(
        int(x)
        for x in adversary_rng.choice(n, size=num_malicious, replace=False)
    )
    config = OverlayConfig(verify_recommendations=verify)
    overlay = build_overlay(
        trace=trace,
        router=RouterKind.QUORUM,
        rng=np.random.default_rng(seed),
        config=config,
        with_freshness=False,
        malicious=sorted(malicious),
    )
    overlay.run(duration_s)

    stretches = _route_stretch(overlay, malicious)
    conflicts = sum(
        node.router.counters.get("rec_conflicts")
        for node in overlay.nodes
        if node.id not in malicious
    )
    return AdversarialResult(
        n=n,
        num_malicious=num_malicious,
        verify=verify,
        mean_stretch=float(stretches.mean()),
        p95_stretch=float(np.percentile(stretches, 95)),
        fraction_degraded=float((stretches > 1.2).mean()),
        rec_conflicts=conflicts,
    )


#: Malicious rendezvous counts the sweep compares: none, and three.
MALICIOUS_COUNTS: Sequence[int] = (0, 3)


def run_adversarial_sweep(
    n: int = 49,
    seed: int = 61,
    duration_s: float = 240.0,
) -> List[AdversarialResult]:
    results = []
    for count in MALICIOUS_COUNTS:
        for verify in (False, True):
            results.append(
                run_adversarial(
                    n=n,
                    num_malicious=count,
                    verify=verify,
                    seed=seed,
                    duration_s=duration_s,
                )
            )
    return results


def format_adversarial(results: Sequence[AdversarialResult]) -> str:
    return render_table(
        [
            "malicious",
            "verification",
            "mean_stretch",
            "p95_stretch",
            "degraded(>1.2x)",
            "conflicts_seen",
        ],
        [r.row() for r in results],
        title=(
            f"§7 adversarial rendezvous — honest pairs' route stretch "
            f"(n={results[0].n})"
        ),
    )
