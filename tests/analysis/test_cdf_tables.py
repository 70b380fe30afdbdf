"""Tests for CDF helpers and table rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import cdf_at, counts_at, fraction_below
from repro.analysis.tables import render_series, render_table
from repro.errors import ConfigError


class TestEmpiricalCdf:
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_cdf_at_matches_definition(self, values):
        values = np.array(values)
        grid = [0.0, 25.0, 50.0, 100.0]
        out = cdf_at(values, grid)
        for g, frac in zip(grid, out):
            assert frac == pytest.approx((values <= g).mean())

    def test_counts_at(self):
        values = np.array([1.0, 2.0, 2.0, 5.0])
        assert list(counts_at(values, [0, 2, 10])) == [0, 3, 4]

    def test_fraction_below(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert fraction_below(values, 2.5) == 0.5
        with pytest.raises(ConfigError):
            fraction_below(np.array([]), 1.0)


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, "x"], [22, "yy"]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_series(self):
        out = render_series("x", [1.0, 2.0], {"y": [0.5, 0.75]})
        assert "0.500" in out and "0.750" in out

    def test_float_formatting(self):
        out = render_table(["v"], [[3.14159]])
        assert "3.14" in out
