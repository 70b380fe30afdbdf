"""Figure 1: latency of direct vs one-hop paths for high-latency pairs.

The paper plots, for the 2,656 PlanetLab host pairs whose direct RTT
exceeded 400 ms (of 359 hosts, Nov 2005), the CDF of total path RTT under
four policies: the direct path, the best one-hop path, and the best
one-hop after excluding the top 3% / top 50% of intermediates. The
finding motivating the whole system: random intermediaries almost never
fix a high-latency path — the best ones must be found deliberately.

We regenerate the figure on the synthetic PlanetLab-like matrix (see
DESIGN.md for the substitution argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analysis.cdf import cdf_at, fraction_below
from repro.analysis.tables import render_series
from repro.core.onehop import best_excluding_top_fraction, best_one_hop_all_pairs
from repro.net.trace import planetlab_like

__all__ = ["Fig1Result", "run_fig1"]

#: The paper's high-latency cut: pairs whose direct RTT exceeds it.
THRESHOLD_MS = 400.0
#: Shares of the best intermediates the two "excluding" curves drop.
EXCLUDE_FRACTIONS: Tuple[float, ...] = (0.03, 0.5)
#: Latency grids of the table and the chart, ms.
TABLE_GRID = np.arange(200.0, 1001.0, 50.0)
PLOT_GRID = np.arange(200.0, 1001.0, 25.0)


@dataclass
class Fig1Result:
    """Data behind Figure 1.

    ``series`` maps curve name to per-pair total RTTs; ``cdf(grid)``
    evaluates all curves on an x grid, as plotted.
    """

    n_hosts: int
    threshold_ms: float
    num_high_latency_pairs: int
    series: Dict[str, np.ndarray]

    def cdf(self, grid: np.ndarray) -> Dict[str, np.ndarray]:
        return {name: cdf_at(vals, grid) for name, vals in self.series.items()}

    def fraction_improved_below(self, x_ms: float) -> Dict[str, float]:
        """Fraction of high-latency pairs brought under ``x_ms``."""
        return {
            name: fraction_below(vals, x_ms) for name, vals in self.series.items()
        }

    def format_table(self) -> str:
        grid = TABLE_GRID
        return render_series(
            "latency_ms",
            grid,
            self.cdf(grid),
            title=(
                f"Figure 1 — fraction of the {self.num_high_latency_pairs} "
                f"high-latency (> {self.threshold_ms:.0f} ms) pairs with "
                f"RTT <= x ({self.n_hosts} hosts)"
            ),
        )

    def format_plot(self) -> str:
        """The same curves as an ASCII chart."""
        from repro.analysis.ascii_plot import ascii_cdf

        return ascii_cdf(
            self.series,
            PLOT_GRID,
            title=f"Figure 1 — RTT CDF of high-latency pairs ({self.n_hosts} hosts)",
            x_label="latency_ms",
        )


def run_fig1(
    n_hosts: int = 359,
    seed: int = 2005,
) -> Fig1Result:
    """Reproduce Figure 1's four curves.

    Matches the paper's methodology: select pairs whose direct path
    exceeds :data:`THRESHOLD_MS`, then evaluate each routing policy's total
    RTT for exactly those pairs.
    """
    rng = np.random.default_rng(seed)
    trace = planetlab_like(n_hosts, rng)
    w = trace.rtt_ms

    iu = np.triu_indices(n_hosts, 1)
    direct = w[iu]
    high = direct > THRESHOLD_MS
    src = iu[0][high]
    dst = iu[1][high]

    onehop_costs, _ = best_one_hop_all_pairs(w)
    series: Dict[str, np.ndarray] = {
        "point_to_point": direct[high],
        "best_one_hop": onehop_costs[iu][high],
    }
    for frac in sorted(EXCLUDE_FRACTIONS, reverse=True):
        name = f"excluding_top_{int(round(frac * 100))}pct"
        series[name] = np.array(
            [
                best_excluding_top_fraction(w, int(i), int(j), frac)
                for i, j in zip(src, dst)
            ]
        )

    return Fig1Result(
        n_hosts=n_hosts,
        threshold_ms=THRESHOLD_MS,
        num_high_latency_pairs=int(high.sum()),
        series=series,
    )
