#!/usr/bin/env python3
"""The overlay benchmark: five workloads, host and simulated metrics.

    python3 bench/run.py --workload steady_n256 --seed 42 --seconds 15 --trace 0
    python3 bench/run.py                 # every workload, untraced then traced
    python3 bench/run.py --selfcheck     # the full set twice; do the two sets agree?

One invocation with ``--workload`` measures one workload. Every
repetition is a fresh child process (``bench/child.py``), run one after
the other under a fixed environment; repetitions continue until
``--seconds`` have passed, and there are never fewer than three.
``setup_s`` is the fastest repetition's, ``run_wall_s`` the sum over the
simulated seconds of each second's fastest repetition (see
``fastest_slices_s``; whole-run minimum, median and maximum are printed
beside it), ``peak_rss_mb`` the median. Simulated metrics must be identical in all
repetitions. ``--trace 1`` runs one untraced repetition and then traced
ones and reports the per-layer metrics instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(repetitions), ``failed`` (repetitions whose output check failed) and
``metrics``. The exit code is 0 only when every check passed. Metric
names, units and bounds are read from ``BENCHMARK.json``; ``README.md``
explains each of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

MIN_REPETITIONS = 3
#: A child that has not finished by then is killed and fails the invocation.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics measured on this machine; the others are simulated
#: and repeat exactly for a seed.
HOST_METRICS = ("setup_s", "run_wall_s", "peak_rss_mb")


class BenchError(Exception):
    """A child crashed, timed out or printed no record."""


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_child(spec: dict) -> dict:
    """One repetition in a fresh process; returns its record."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S:.0f} s: {spec}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {spec}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child printed no record: {spec}\n{proc.stderr}")
    return json.loads(lines[-1])


def repeat(spec: dict, seconds: float, minimum: int, started: float) -> List[dict]:
    """Repetitions of ``spec`` until ``seconds`` have passed since ``started``."""
    records: List[dict] = []
    while len(records) < minimum or time.monotonic() - started < seconds:
        records.append(run_child(spec))
    return records


def check_records(records: List[dict]) -> List[str]:
    """Output checks over one workload's repetitions."""
    problems: List[str] = []
    for i, record in enumerate(records):
        problems += [f"repetition {i}: {v}" for v in record["violations"]]
    first = records[0]
    for i, record in enumerate(records[1:], start=1):
        if record["digest"] != first["digest"]:
            differing = sorted(
                key for key in first["digest"] if record["digest"][key] != first["digest"][key]
            )
            problems.append(f"repetition {i}: output digest differs from repetition 0 in {differing}")
        if record["sim"] != first["sim"]:
            problems.append(f"repetition {i}: simulated metrics differ from repetition 0")
    return problems


def fastest_slices_s(records: List[dict]) -> float:
    """``run_wall_s``: each simulated second's fastest repetition, summed.

    A repetition times the run in slices of one simulated second; slice k
    is the same work in every repetition of a seed. Taking the minimum
    per slice instead of per run removes host hiccups shorter than a
    run, which a shared machine produces in every run. (Slow-downs that
    last longer than the whole invocation remain; see README.md.)
    """
    return sum(min(times) for times in zip(*(r["slices_s"] for r in records)))


def spread(values: List[float]) -> str:
    return f"min {min(values):.4g} median {statistics.median(values):.4g} max {max(values):.4g}"


def measure_end_to_end(name: str, seed: int, seconds: float, contract: dict) -> dict:
    started = time.monotonic()
    records = repeat({"workload": name, "seed": seed}, seconds, MIN_REPETITIONS, started)
    problems = check_records(records)
    host = {key: [r["host"][key] for r in records] for key in records[0]["host"]}
    values = {
        "setup_s": min(host["setup_s"]),
        "run_wall_s": fastest_slices_s(records),
        "peak_rss_mb": statistics.median(host["peak_rss_mb"]),
        **records[0]["sim"],
    }
    print(
        f"{name} seed {seed}: {len(records)} repetitions in "
        f"{time.monotonic() - started:.1f} s, digest {records[0]['digest']['digest'][:12]}"
    )
    detail = {key: "whole repetitions: " + spread(host[key]) for key in HOST_METRICS}
    metrics = {}
    for metric in contract["end_to_end"]:
        key, unit = metric["name"], metric["unit"]
        metrics[key] = {"value": values[key], "unit": unit}
        kind = "host" if key in HOST_METRICS else "sim "
        print(
            f"  {kind} {key:<18} {values[key]:>10.6g} {unit:<7}"
            f"{detail.get(key, 'identical in every repetition')}"
        )
    return finish(records, problems, metrics)


def measure_per_layer(
    name: str, seed: int, seconds: float, contract: dict, dump: Optional[str] = None
) -> dict:
    started = time.monotonic()
    untraced = run_child({"workload": name, "seed": seed})
    traced = repeat({"workload": name, "seed": seed, "trace": 1, "dump": dump}, seconds, 1, started)
    problems = check_records([untraced] + traced)

    # Slice by slice, like run_wall_s, or a busy minute reads as overhead.
    overhead = fastest_slices_s(traced) / fastest_slices_s([untraced]) - 1.0
    layers = [dict(r["layers"], **r["host"], trace_overhead_frac=overhead) for r in traced]
    print(
        f"{name} seed {seed}: 1 untraced + {len(traced)} traced repetitions in "
        f"{time.monotonic() - started:.1f} s, {traced[0]['layers']['spans']} spans, "
        f"coverage {layers[0]['span_coverage_frac']:.3f}, overhead {overhead:+.3f}"
    )
    metrics = {}
    for metric in contract["per_layer"]:
        key, unit = metric["name"], metric["unit"]
        samples = [layer.get(key, 0) for layer in layers]
        if unit == "count":
            if any(s != samples[0] for s in samples):
                problems.append(f"per-layer count {key} differs between traced repetitions: {samples}")
            value = samples[0]
        else:
            value = statistics.median(samples)
        metrics[key] = {"value": value, "unit": unit}
        if value:
            print(f"  {key:<40} {value:>14.6g} {unit}")
    return finish([untraced] + traced, problems, metrics)


def finish(records: List[dict], problems: List[str], metrics: dict) -> dict:
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    failed = {p.split(":", 1)[0] for p in problems}
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": min(len(failed), len(records)),
        "metrics": metrics,
    }


def run_set(names: List[str], seed: int, seconds: float, contract: dict) -> Dict[str, dict]:
    """Every named workload, untraced then traced."""
    results = {}
    for name in names:
        results[name] = {
            "end_to_end": measure_end_to_end(name, seed, seconds, contract),
            "per_layer": measure_per_layer(name, seed, seconds, contract),
        }
    return results


def selfcheck(names: List[str], seed: int, seconds: float, contract: dict) -> bool:
    """Two sets of runs of the same code: do they agree?

    Host metrics must agree within their bound, simulated metrics and
    per-layer counts exactly. The observed ratio of every metric is
    printed so that the bounds can be justified again from data.
    """
    first = run_set(names, seed, seconds, contract)
    second = run_set(names, seed, seconds, contract)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    exact = {m["name"] for m in contract["per_layer"] if m["unit"] == "count"}
    agree = True
    print("selfcheck: second set / first set")
    for name in names:
        for part in ("end_to_end", "per_layer"):
            a, b = first[name][part], second[name][part]
            agree &= a["correct"] and b["correct"]
            for key, entry in a["metrics"].items():
                x, y = entry["value"], b["metrics"][key]["value"]
                ratio = y / x if x else (1.0 if y == x else float("inf"))
                if key in HOST_METRICS:
                    ok = abs(ratio - 1.0) <= bounds[key]
                    rule = f"within {bounds[key]:g}"
                elif key in bounds or key in exact:
                    ok, rule = x == y, "exactly equal"
                else:
                    ok, rule = True, "informational"
                agree &= ok
                if x or y:
                    verdict = "ok" if ok else "DISAGREE"
                    print(f"  {name:<18} {key:<40} ratio {ratio:8.4f}  {rule:<14} {verdict}")
    print("selfcheck:", "the two sets agree" if agree else "THE TWO SETS DISAGREE")
    return agree


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench/run.py: no program to measure under {ROOT} (src/repro missing)", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--selfcheck", action="store_true", help="run the set twice and compare")
    parser.add_argument(
        "--dump-spans", action="store_true", help="traced runs write bench/out/<workload>.spans.jsonl"
    )
    args = parser.parse_args(argv)

    try:
        if args.selfcheck:
            chosen = [args.workload] if args.workload else names
            return 0 if selfcheck(chosen, args.seed, args.seconds, contract) else 1
        if args.workload is None:
            results = run_set(names, args.seed, args.seconds, contract)
            ok = all(part["correct"] for result in results.values() for part in result.values())
            print(json.dumps({"correct": ok, "workloads": results}))
            return 0 if ok else 1
        if args.trace:
            dump = None
            if args.dump_spans:
                (BENCH_DIR / "out").mkdir(exist_ok=True)
                dump = str(BENCH_DIR / "out" / f"{args.workload}.spans.jsonl")
            result = measure_per_layer(args.workload, args.seed, args.seconds, contract, dump)
        else:
            result = measure_end_to_end(args.workload, args.seed, args.seconds, contract)
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
