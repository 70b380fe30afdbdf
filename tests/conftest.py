"""Shared fixtures for the test suite."""

import os
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import settings

# Every published number is reproducible from a clean process, and so is
# a CI verdict: under CI the property tests draw the same examples on
# every run (a failure is then a change in the code, not in the draw).
# Locally they keep exploring.
settings.register_profile("ci", derandomize=True)

# Test-side accessors of the failover manager's state
# (tests/core/failover_state.py) serve tests in every package.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "core"))
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    """A deterministic random generator, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


def make_symmetric_costs(rng, n, low=10.0, high=500.0):
    """A random symmetric cost matrix with zero diagonal."""
    r = rng.uniform(low, high, size=(n, n))
    r = np.triu(r, 1)
    return r + r.T
