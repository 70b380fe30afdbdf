"""One repetition of one workload, in a process of its own.

``python3 -m bench.child '<json spec>'`` (run by ``bench/run.py`` with a
fixed environment) generates the workload's inputs from the seed, builds
the overlay, runs the fixed simulated duration and prints one JSON
record as the last line of stdout:

* ``host`` — timings and memory measured on this machine;
* ``slices_s`` — the run's wall time per simulated second;
* ``sim``  — simulated quantities, deterministic per seed;
* ``digest`` — a hash over the run's outputs; it must be identical across
  the repetitions (and the traced run) of one workload and seed;
* ``violations`` — failed output checks (empty when correct);
* ``layers`` — per-layer spans, counts and memory (traced runs only).

The spec's ``n`` / ``duration_s`` override the workload's own size so the
smoke test can drive every builder small through this same entry point.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

_T_IMPORT = time.perf_counter()

import numpy as np

from repro.core.onehop import best_one_hop_all_pairs
from repro.overlay.stats import ALL_KINDS

from bench.workloads import SAMPLE_PERIOD_S, WARMUP_S, WORKLOADS

IMPORT_S = time.perf_counter() - _T_IMPORT

CONTROL_KINDS = tuple(k for k in ALL_KINDS if k != "probe")


def _rss_mb() -> float:
    """Peak resident set size so far, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def route_opt_frac(overlay, hops: np.ndarray) -> float:
    """Share of live, reachable ordered pairs routed near-optimally.

    A pair counts when the true cost of the source's chosen route is at
    most 1.10 x the best one-hop cost + 1 ms on the ground-truth
    underlay: the RTT matrix with currently-down links removed and with
    only live overlay nodes allowed as intermediates. ``hops`` is the
    final ``Overlay.route_hops()`` table.
    """
    n = overlay.n
    t = overlay.sim.now
    live = overlay.started_mask()
    w = overlay.topology.rtt_matrix_ms.copy()
    for i in range(n):
        w[i, ~overlay.topology.up_vector(i, t)] = np.inf
    w[~live, :] = np.inf
    w[:, ~live] = np.inf
    np.fill_diagonal(w, 0.0)
    best, _ = best_one_hop_all_pairs(w)

    src = np.arange(n)[:, None]
    via = np.where(hops >= 0, hops, src)
    cost = w[src, via] + w[via, np.arange(n)[None, :]]
    cost[hops < 0] = np.inf
    pairs = live[:, None] & live[None, :] & np.isfinite(best)
    np.fill_diagonal(pairs, False)
    total = int(pairs.sum())
    if total == 0:
        return 1.0
    return float((cost[pairs] <= 1.10 * best[pairs] + 1.0).sum()) / total


def output_digest(overlay, hops: np.ndarray) -> dict:
    """What the run produced, reduced to counts and hashes."""
    transport = overlay.transport
    bytes_by_kind = {
        kind: int(overlay.bandwidth.bytes_per_node((kind,)).sum()) for kind in ALL_KINDS
    }
    parts = {
        "events_run": overlay.sim.events_run,
        "sent": transport.sent_count,
        "delivered": transport.delivered_count,
        "dropped": transport.dropped_count,
        "bytes_by_kind": bytes_by_kind,
        "route_hops": hashlib.sha256(hops.tobytes()).hexdigest(),
        "view_versions": hashlib.sha256(overlay.view_versions().tobytes()).hexdigest(),
    }
    parts["digest"] = hashlib.sha256(
        json.dumps(parts, sort_keys=True).encode()
    ).hexdigest()
    return parts


def run_once(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    seed = int(spec["seed"])
    n = int(spec.get("n") or workload.n)
    duration_s = float(spec.get("duration_s") or workload.duration_s)
    tracer = None
    if spec.get("trace"):
        from bench.tracing import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    built = workload.build(seed, n, duration_s)
    overlay = built.overlay
    recorder = overlay.attach_disruption(SAMPLE_PERIOD_S)
    setup_s = time.perf_counter() - t0
    rss_after_setup = _rss_mb()
    if tracer is not None:
        tracer.mark_run_start()

    # The run is timed in slices of one simulated second. A slice is
    # the same work in every repetition of a seed, so the runner can
    # take each slice's fastest repetition and is rid of host hiccups
    # shorter than a repetition.
    slices = []
    c0 = time.process_time()
    t_start = t_prev = time.perf_counter()
    for second in range(1, int(duration_s) + 1):
        overlay.sim.run_until(float(second))  # what Overlay.run does
        t_now = time.perf_counter()
        slices.append(t_now - t_prev)
        t_prev = t_now
    overlay.sim.run_until(duration_s)
    run_wall_s = time.perf_counter() - t_start
    run_cpu_s = time.process_time() - c0
    peak_rss = _rss_mb()
    if tracer is not None:
        tracer.stop()

    hops = overlay.route_hops()
    times, avail = recorder.availability_series()
    avail = avail[times >= WARMUP_S]
    control_bps = overlay.bandwidth.bps_per_node(CONTROL_KINDS, 0.0, duration_s)
    sim = {
        "route_ok_frac": float(avail.mean()),
        "route_opt_frac": route_opt_frac(overlay, hops),
        "control_kbps_node": float(control_bps.mean()) / 1000.0,
        "route_samples": int(avail.size),
    }

    violations = []
    if sorted(overlay.active) != list(built.expected_active):
        violations.append("churn/fault events not all applied: active set differs from the plan")
    ok_floor, opt_floor = workload.route_floor or (1.0, 1.0)
    if workload.route_floor and (n, duration_s) != (workload.n, workload.duration_s):
        ok_floor = opt_floor = 0.0  # the floors were recorded at the workload's own size
    if sim["route_ok_frac"] < ok_floor:
        violations.append(f"route_ok_frac {sim['route_ok_frac']:.4f} < {ok_floor}")
    if sim["route_opt_frac"] < opt_floor:
        violations.append(f"route_opt_frac {sim['route_opt_frac']:.4f} < {opt_floor}")
    if sim["control_kbps_node"] <= 0.0:
        violations.append("no control traffic recorded")

    record = {
        "workload": workload.name,
        "seed": seed,
        "n": n,
        "duration_s": duration_s,
        "host": {
            "import_s": IMPORT_S,
            "setup_s": setup_s,
            "run_wall_s": run_wall_s,
            "run_cpu_s": run_cpu_s,
            "peak_rss_mb": peak_rss,
            "rss_after_setup_mb": rss_after_setup,
        },
        "slices_s": slices,
        "sim": sim,
        "digest": output_digest(overlay, hops),
        "planned_events": built.planned_events,
        "violations": violations,
    }
    if tracer is not None:
        record["layers"] = tracer.summary(overlay, run_wall_s)
        if spec.get("dump"):
            tracer.dump_jsonl(spec["dump"])
        tracer.uninstall()
    return record


def main(argv) -> int:
    record = run_once(json.loads(argv[1]))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
