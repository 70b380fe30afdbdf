"""Tests for the ASCII chart renderer."""

import numpy as np
import pytest

from repro.analysis.ascii_plot import ascii_cdf, ascii_plot
from repro.errors import ConfigError


class TestAsciiPlot:
    def test_basic_render(self):
        xs = np.linspace(0, 10, 20)
        out = ascii_plot(xs, {"line": xs * 2}, title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "o=line" in out
        assert "20" in out  # max y label

    def test_marker_per_series(self):
        xs = np.linspace(0, 1, 10)
        out = ascii_plot(xs, {"a": xs, "b": 1 - xs})
        assert "o=a" in out and "x=b" in out
        assert "o" in out and "x" in out

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            ascii_plot(np.arange(5.0), {"s": np.arange(4.0)})

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            ascii_plot(np.array([1.0]), {"s": np.array([1.0])})

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigError):
            ascii_plot(np.arange(3.0), {})

    def test_nonfinite_values_skipped(self):
        xs = np.arange(5.0)
        ys = np.array([0.0, np.inf, 2.0, np.nan, 4.0])
        out = ascii_plot(xs, {"s": ys})
        assert "o" in out  # finite points still plotted

    def test_flat_series_ok(self):
        xs = np.arange(4.0)
        out = ascii_plot(xs, {"s": np.ones(4)})
        assert "o" in out


class TestAsciiCdf:
    def test_fraction_mode(self):
        samples = {"a": np.array([1.0, 2.0, 3.0])}
        out = ascii_cdf(samples, np.linspace(0, 4, 10), title="T", x_label="x")
        assert "fraction <= x" in out
