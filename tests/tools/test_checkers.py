"""Every reprolint rule fires on its bad fixture and stays quiet on the
good one."""

from pathlib import Path

import pytest

from tools.reprolint.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
OVERLAY = FIXTURES / "src" / "repro" / "overlay"
NET = FIXTURES / "src" / "repro" / "net"


def codes_for(path: Path, select):
    return [f.code for f in lint_paths([str(path)], select=select)]


def lines_for(path: Path, select):
    return sorted(f.line for f in lint_paths([str(path)], select=select))


# ---------------------------------------------------------------------------
# RL001 determinism
# ---------------------------------------------------------------------------
def test_rl001_fires_on_ambient_randomness_and_wall_clock():
    findings = lint_paths([str(OVERLAY / "rl001_bad.py")], select=["RL001"])
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 4
    assert "random" in messages
    assert "time.time" in messages
    assert "uuid.uuid4" in messages
    assert "numpy.random.rand" in messages


def test_rl001_quiet_on_seeded_generators():
    assert codes_for(OVERLAY / "rl001_good.py", ["RL001"]) == []


def test_rl001_scoped_to_repro_sources(tmp_path):
    # The same banned code outside src/repro/ is none of RL001's business.
    f = tmp_path / "driver.py"
    f.write_text("import time\n\nT0 = time.time()\n")
    assert codes_for(f, ["RL001"]) == []


# ---------------------------------------------------------------------------
# RL002 slots
# ---------------------------------------------------------------------------
def test_rl002_fires_on_unslotted_classes():
    findings = lint_paths([str(OVERLAY / "rl002_bad.py")], select=["RL002"])
    names = "\n".join(f.message for f in findings)
    assert len(findings) == 2
    assert "PerNodeThing" in names
    assert "PerEventRecord" in names


def test_rl002_quiet_on_slotted_exempt_and_waived():
    assert codes_for(OVERLAY / "rl002_good.py", ["RL002"]) == []


# ---------------------------------------------------------------------------
# RL003 blocking calls
# ---------------------------------------------------------------------------
def test_rl003_fires_on_sleep_socket_and_file_io():
    findings = lint_paths([str(NET / "rl003_bad.py")], select=["RL003"])
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 4
    assert "time.sleep" in messages
    assert "socket" in messages
    assert "open" in messages
    assert "read_text" in messages


def test_rl003_quiet_on_event_scheduling():
    assert codes_for(NET / "rl003_good.py", ["RL003"]) == []


# ---------------------------------------------------------------------------
# RL004 wire accounting (cross-file)
# ---------------------------------------------------------------------------
def test_rl004_fires_on_broken_contract():
    findings = lint_paths([str(FIXTURES / "rl004_bad")], select=["RL004"])
    messages = "\n".join(f.message for f in findings)
    assert "wire_size" in messages  # ProbeRequest lacks wire_size
    assert "KIND_ORPHAN" in messages  # kind constant nothing returns
    assert "MISSING_BYTES" in messages  # wire name that doesn't exist
    assert len(findings) == 3


def test_rl004_quiet_on_closed_contract():
    assert lint_paths([str(FIXTURES / "rl004_good")], select=["RL004"]) == []


# ---------------------------------------------------------------------------
# RL005 mutable defaults
# ---------------------------------------------------------------------------
def test_rl005_fires_on_each_mutable_default_form():
    findings = lint_paths([str(OVERLAY / "rl005_bad.py")], select=["RL005"])
    assert len(findings) == 5  # [], {}, set(), np.zeros(4), list()


def test_rl005_quiet_on_immutable_defaults():
    assert codes_for(OVERLAY / "rl005_good.py", ["RL005"]) == []


# ---------------------------------------------------------------------------
# RL006 unordered iteration
# ---------------------------------------------------------------------------
def test_rl006_fires_on_set_fed_sinks():
    findings = lint_paths([str(OVERLAY / "rl006_bad.py")], select=["RL006"])
    # for-loop, list(), tuple() genexp over self attr, closure comprehension
    assert len(findings) == 4


def test_rl006_quiet_on_sorted_dicts_and_other_scopes():
    assert codes_for(OVERLAY / "rl006_good.py", ["RL006"]) == []


# ---------------------------------------------------------------------------
# Waiver hygiene (RL000)
# ---------------------------------------------------------------------------
def test_waiver_with_reason_suppresses_the_finding():
    plain = FIXTURES / "plain"
    assert lint_paths([str(plain / "waiver_used.py")]) == []


def test_waiver_without_reason_is_reported():
    plain = FIXTURES / "plain"
    findings = lint_paths([str(plain / "waiver_empty_reason.py")])
    assert [f.code for f in findings] == ["RL000"]
    assert "no reason" in findings[0].message


def test_stale_waiver_reported_on_full_runs_only():
    plain = FIXTURES / "plain"
    full = lint_paths([str(plain / "waiver_stale.py")])
    assert [f.code for f in full] == ["RL000"]
    assert "suppresses nothing" in full[0].message
    # A partial run can't prove staleness, so it stays quiet.
    assert lint_paths([str(plain / "waiver_stale.py")], select=["RL001"]) == []


def test_unknown_select_code_raises():
    with pytest.raises(ValueError):
        lint_paths([str(OVERLAY / "rl001_bad.py")], select=["RL42"])
