"""A defaulted parameter exists only when two callers set it differently.

The Options rule of ``test_config_fields.py`` applied to every public
function, method and constructor in ``src/repro``: each defaulted
parameter must take at least two distinct values across the calls in
``src/repro``, ``bench/`` and the ``benchmarks/`` modules that publish a
table (its default is one value, each value a call passes another, and a
name or an expression counts as a value of its own). A value every run
shares is a module constant beside the code that reads it; a test that
needs another value patches the constant (CONTRIBUTING, "The Options
rule"). Exempt are the run sizes of the ``run_*`` experiment entry
points, which tests shrink on purpose, and the entries of
:data:`ALLOWED`, each with its reason.
"""

from api_scan import CALLERS, SRC_FILES, definitions, single_valued

#: Run-size parameters of a ``run_*`` entry point: how many nodes, how
#: long, which seed, how many samples.
RUN_SIZES = {
    "at_s",
    "count",
    "duration_s",
    "fail_at_s",
    "fractions",
    "measure_from_s",
    "n",
    "num_pairs",
    "num_times",
    "seed",
    "settle_s",
    "sizes",
    "trials",
    "warmup_s",
    "watch_s",
}

ALLOWED = {
    "repro.net.failures:FailureTable.__init__(node_schedules)": (
        "tests write node outages by hand; the builders pass windows through _from_rows"
    ),
    "repro.net.failures:schedule_from_episodes(sigma)": (
        "one link's process is (duty, mean, sigma); the builder's test passes each class pair's"
    ),
    "repro.overlay.router_base:RouterBase.__init__(row_block)": (
        "OverlayNode passes the overlay's block through router_cls(...), which the scan "
        "cannot resolve; a router built alone makes its own"
    ),
    "repro.overlay.stats:BandwidthRecorder.bytes_per_node(directions)": (
        "runs report in+out; tests check per-direction conservation and received-only bytes"
    ),
}


def is_run_size(flagged_param: str) -> bool:
    """``module:function(param)``: is it a run size of a ``run_*``?"""
    function, param = flagged_param[:-1].split("(")
    return function.split(":")[1].startswith("run_") and param in RUN_SIZES


def flagged(defined, callers) -> list:
    return [p for p in single_valued(defined, callers) if not is_run_size(p)]


def test_every_defaulted_parameter_is_set_to_two_values():
    found = flagged(list(definitions(SRC_FILES)), CALLERS)
    assert sorted(set(found) - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - set(found)) == []  # no stale allowance


def test_the_check_fails_on_a_single_valued_parameter(tmp_path):
    module = tmp_path / "knobs.py"
    module.write_text(
        "def smooth(x, alpha=0.5):\n    return x\n\n"
        "def run_sweep(n=8, rate=0.1):\n    return n\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("smooth(1.0)\nsmooth(2.0, alpha=0.5)\nrun_sweep(rate=0.1)\n")
    defined = list(definitions([module]))
    assert flagged(defined, [caller]) == ["knobs:run_sweep(rate)", "knobs:smooth(alpha)"]
    caller.write_text("smooth(1.0, 0.25)\nrun_sweep(n=4, rate=0.2)\n")
    assert flagged(defined, [caller]) == []
