"""Empirical CDF helpers shared by the figure reproductions.

The paper's figures plot two styles:

* fraction-style CDFs (Figure 1: "fraction of paths with RTT <= x"),
* count-style CDFs (Figures 8, 10, 11: "number of nodes with <= x").

Both reduce to evaluating the empirical distribution of a sample at a
grid of x values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = ["cdf_at", "counts_at", "fraction_below"]


def cdf_at(values: np.ndarray, grid: Sequence[float]) -> np.ndarray:
    """Fraction of the sample ≤ each grid point."""
    values = np.asarray(values, dtype=float).ravel()
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise ConfigError("cdf_at of an empty sample")
    xs = np.sort(values)
    return np.searchsorted(xs, np.asarray(grid, dtype=float), side="right") / xs.size


def counts_at(values: np.ndarray, grid: Sequence[float]) -> np.ndarray:
    """Count of the sample ≤ each grid point (Figure 8/10/11 style)."""
    values = np.asarray(values, dtype=float).ravel()
    values = values[~np.isnan(values)]
    xs = np.sort(values)
    return np.searchsorted(xs, np.asarray(grid, dtype=float), side="right")


def fraction_below(values: np.ndarray, threshold: float) -> float:
    """Fraction of the sample strictly below ``threshold``."""
    values = np.asarray(values, dtype=float).ravel()
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise ConfigError("fraction_below of an empty sample")
    return float((values < threshold).mean())
