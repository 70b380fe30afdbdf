"""The shipped tree must lint clean — this is the CI gate in test form."""

import re
from pathlib import Path

from tools.reprolint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_lints_clean():
    findings = lint_paths([str(REPO_ROOT / "src" / "repro")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_examples_lint_clean():
    """The examples promise reproducible numbers, so RL001 (determinism)
    and the other rules hold there too."""
    findings = lint_paths([str(REPO_ROOT / "examples")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_reprolint_itself_lints_clean():
    findings = lint_paths([str(REPO_ROOT / "tools")])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_src_repro_reads_no_wall_clock():
    """No RL001 waiver under src/repro: simulation code takes its time
    from the simulator, and host wall-clock reads belong to bench/."""
    waived = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"reprolint:\s*disable=[^#]*RL001", line)
    ]
    assert waived == []
