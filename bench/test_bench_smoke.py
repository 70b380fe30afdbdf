"""Smoke test of the benchmark itself (tier-1, a few seconds).

Every workload's builder runs small (n=36, 60 simulated seconds) through
the same child entry point the benchmark uses, once untraced and once
traced; the test checks that the two produce the same outputs, that the
metric names match ``BENCHMARK.json`` and that spans cover the run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import run as bench_run
from bench.workloads import WORKLOADS

SMALL = {"seed": 7, "n": 36, "duration_s": 60.0}
CONTRACT = bench_run.load_contract()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def small_runs():
    """``{workload: (untraced record, traced record)}`` at smoke size."""
    runs = {}
    for name in WORKLOADS:
        spec = dict(SMALL, workload=name)
        runs[name] = (bench_run.run_child(spec), bench_run.run_child(dict(spec, trace=1)))
    return runs


def test_contract_is_well_formed():
    assert set(CONTRACT) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in CONTRACT["end_to_end"]:
        assert 0.0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_contract_lists_the_workloads_with_their_reasons():
    listed = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
    assert listed == {w.name: w.why for w in WORKLOADS.values()}
    assert all(len(why) <= 200 and "\n" not in why for why in listed.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_small_and_tracing_changes_no_output(small_runs, name):
    untraced, traced = small_runs[name]
    assert untraced["violations"] == [] and traced["violations"] == []
    assert untraced["digest"] == traced["digest"]
    assert untraced["sim"] == traced["sim"]
    assert bench_run.check_records([untraced, traced]) == []
    assert len(untraced["slices_s"]) == 60
    assert traced["layers"]["span_coverage_frac"] >= 0.9
    end_to_end = {**untraced["host"], **untraced["sim"]}
    for metric in CONTRACT["end_to_end"]:
        assert end_to_end[metric["name"]] > 0, metric


def test_every_per_layer_metric_is_produced(small_runs):
    produced = {"trace_overhead_frac"}
    for _, traced in small_runs.values():
        produced |= set(traced["layers"]) | set(traced["host"])
    missing = [m["name"] for m in CONTRACT["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_fault_workloads_apply_their_plans(small_runs):
    assert small_runs["churn_n160"][0]["planned_events"] > 0
    assert small_runs["gossip_rack_n64"][0]["planned_events"] > 0
    layers = small_runs["gossip_rack_n64"][1]["layers"]
    assert layers["harness.fail_node.calls"] + layers["harness.join_node.calls"] == (
        small_runs["gossip_rack_n64"][0]["planned_events"]
    )
    assert layers["gossip.on_message.calls"] > 0 and layers["gossip.kbps_node"] > 0


def test_repetitions_that_disagree_are_reported(small_runs):
    untraced, _ = small_runs["steady_n256"]
    other = json.loads(json.dumps(untraced))
    other["digest"]["events_run"] += 1
    other["violations"] = ["route_ok_frac 0.5 < 1.0"]
    problems = bench_run.check_records([untraced, other])
    assert any("digest differs" in p and "events_run" in p for p in problems)
    assert any("route_ok_frac" in p for p in problems)


def test_run_wall_is_the_sum_of_each_slices_fastest_repetition():
    records = [{"slices_s": [1.0, 5.0, 2.0]}, {"slices_s": [3.0, 1.0, 2.5]}]
    assert bench_run.fastest_slices_s(records) == 1.0 + 1.0 + 2.0


def test_runner_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copy(bench_run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench_run.BENCH_DIR,
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady_n256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
