"""Minimal ASCII line plots for the figure reproductions.

No plotting libraries are available offline, so the benchmarks print the
figures' data series as tables — and, via this module, as rough ASCII
charts that make the curve shapes (orderings, crossovers, knees) visible
at a glance in terminal output and in the ``results/`` artifacts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = ["ascii_plot", "ascii_cdf"]

_MARKERS = "ox+*#@%&"
#: Chart size in characters.
WIDTH = 68
HEIGHT = 16


def ascii_plot(
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render named y-series over a shared x grid as an ASCII chart.

    Each series gets a marker from ``o x + * ...``; the legend maps them
    back.
    """
    width, height = WIDTH, HEIGHT
    xs_arr = np.asarray(xs, dtype=float)
    if xs_arr.size < 2:
        raise ConfigError("need at least two x points to plot")
    if not series:
        raise ConfigError("need at least one series")
    if len(series) > len(_MARKERS):
        raise ConfigError(f"too many series (max {len(_MARKERS)})")

    x_lo, x_hi = float(xs_arr.min()), float(xs_arr.max())
    if x_hi == x_lo:
        raise ConfigError("x range is degenerate")

    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    finite = all_y[np.isfinite(all_y)]
    if finite.size == 0:
        raise ConfigError("no finite y values to plot")
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for (name, ys), marker in zip(series.items(), _MARKERS):
        ys_arr = np.asarray(ys, dtype=float)
        if ys_arr.shape != xs_arr.shape:
            raise ConfigError(f"series {name!r} length mismatch")
        for x, y in zip(xs_arr, ys_arr):
            if not np.isfinite(y):
                continue
            col = int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))
            row = int(round((y - y_lo) / (y_hi - y_lo) * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_hi:.6g}"
    bottom_label = f"{y_lo:.6g}"
    pad = max(len(top_label), len(bottom_label))
    for r, row_chars in enumerate(grid):
        label = top_label if r == 0 else (bottom_label if r == height - 1 else "")
        lines.append(f"{label:>{pad}} |" + "".join(row_chars))
    lines.append(" " * pad + " +" + "-" * width)
    x_left = f"{xs_arr.min():.6g}"
    x_right = f"{xs_arr.max():.6g}"
    gap = width - len(x_left) - len(x_right)
    lines.append(
        " " * (pad + 2) + x_left + " " * max(1, gap) + x_right
    )
    lines.append(" " * (pad + 2) + f"{x_label}  vs  {y_label}")
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), _MARKERS)
    )
    lines.append(" " * (pad + 2) + legend)
    return "\n".join(lines)


def ascii_cdf(
    samples: Dict[str, np.ndarray],
    grid: Sequence[float],
    title: str,
    x_label: str,
) -> str:
    """Plot the empirical CDFs (fraction of samples <= x) of named
    samples over a grid (Figure 1 style)."""
    from repro.analysis.cdf import cdf_at

    series = {name: cdf_at(vals, grid) for name, vals in samples.items()}
    return ascii_plot(grid, series, title=title, x_label=x_label, y_label="fraction <= x")
