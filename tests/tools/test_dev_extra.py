"""``pip install -e .[dev]`` installs what ``requirements-dev.txt`` lists.

The tier-1 suite imports ``hypothesis`` in many modules, so an extra
missing a tool fails at collection, not at a clear install step.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _pyproject_list(key: str) -> set:
    """A one-line ``key = [...]`` list of ``pyproject.toml`` (no tomllib
    before Python 3.11)."""
    text = (ROOT / "pyproject.toml").read_text()
    return set(ast.literal_eval(re.search(rf"^{key} = (\[.*\])$", text, re.M).group(1)))


def test_dev_extra_matches_requirements_dev():
    lines = (ROOT / "requirements-dev.txt").read_text().splitlines()
    listed = {line.strip() for line in lines if line.strip() and not line.startswith("#")}
    assert listed - _pyproject_list("dependencies") == _pyproject_list("dev")
