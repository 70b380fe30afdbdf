"""Shared fixtures for the benchmark harness.

The deployment simulation (Figures 8, 10-14) is expensive, so one
paper-scale run (140 nodes) is shared across all the figure benchmarks
through a session-scoped fixture. Each benchmark regenerates its
figure's data series, prints it, and writes it under ``results/``.
"""

import pathlib
import sys

import pytest

from repro.experiments.deployment import run_deployment

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

# The kernel guards compare with the tests' reference implementations
# and build the benchmark's own workloads (``bench`` at the repo root).
sys.path.insert(0, str(RESULTS_DIR.parent / "tests" / "overlay"))
sys.path.insert(0, str(RESULTS_DIR.parent))


@pytest.fixture(scope="session")
def deployment():
    """One paper-scale deployment run (140 nodes, 10 min measured)."""
    return run_deployment(n=140, duration_s=600.0, warmup_s=240.0, seed=42)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a regenerated table and persist it under results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
