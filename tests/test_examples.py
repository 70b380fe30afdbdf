"""Every example runs to completion without a warning.

Each ``examples/*.py`` is a self-contained walkthrough over the public
API (``route_to``, the overlay harness, the experiments), run here as a
user runs it: a fresh interpreter with ``PYTHONPATH=src``, and ``-W
error`` so that a warning — a mean of an empty slice, a deprecation —
fails the run instead of scrolling past.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("example", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs_cleanly(example):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-W", "error", str(example)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip(), "an example prints what it shows"
