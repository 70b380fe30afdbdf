"""``src/repro`` keeps only what a run reaches.

Every public function, class and method in ``src/repro`` must be named
somewhere in ``src/repro``, ``bench/``, ``examples/`` or a
``benchmarks/`` module that publishes a table. Code only tests reach is
deleted with the tests that check only it, or moved beside its tests as
a reference model (``tests/<pkg>/reference_*.py``, CONTRIBUTING "The
Options rule"). What stays on purpose is on :data:`ALLOWED` with its
reason, or is a boundary ``bench/tracing.py`` wraps by name
(:data:`repro.spans.SPANS`).
"""

import inspect

from api_scan import SRC_FILES, USERS, definitions, unreached
from repro.spans import SPANS

_ACCESSOR = "test accessor: state the tests check that no run reads"
_CODEC = (
    "the executable spec of its byte formula (test_wire.py round-trips it); "
    "RL004 pairs encode_* with decode_*"
)

ALLOWED = {
    "repro.core.failover:FailoverManager.last_cover": _ACCESSOR,
    "repro.core.failover:FailoverManager.server_failed": _ACCESSOR,
    "repro.core.grid:GridQuorum.assert_equals_fresh": (
        "the oracle for a grid changed in place: it must equal one built fresh"
    ),
    "repro.core.protocol:CommunicationLedger.max_total_bytes": (
        "Theorem 1 bounds the busiest node; the protocol tests read it"
    ),
    "repro.core.protocol:CommunicationLedger.max_total_messages": (
        "Theorem 1 bounds the busiest node; the protocol tests read it"
    ),
    "repro.core.quorum:QuorumSystem.max_load": (
        "the 2 sqrt(n) load bound of §3, read by the quorum tests"
    ),
    "repro.net.failures:FailureTable.node_is_up": _ACCESSOR,
    "repro.net.failures:schedule_from_episodes": (
        "one link's draws, as build_failure_table makes them; the builder is pinned to it"
    ),
    "repro.net.simulator:PeriodicTimer.stopped": _ACCESSOR,
    "repro.net.simulator:Simulator.cancelled_pending": _ACCESSOR,
    "repro.overlay.membership:MembershipClient": (
        "the interface every plane's client implements; nothing names it at run time"
    ),
    "repro.overlay.membership:MembershipService.pending_changes": _ACCESSOR,
    "repro.overlay.stats:DisruptionRecorder.view_divergence_windows": _ACCESSOR,
    **{
        f"repro.overlay.wire:{verb}_{what}": _CODEC
        for verb in ("encode", "decode")
        for what in ("gossip_digest", "gossip_ops", "linkstate", "recommendations", "view_delta")
    },
}


def _defining_class(owner, attr):
    return next(cls for cls in inspect.getmro(owner) if attr in vars(cls))


def bench_spans() -> set:
    """The qualified names of the methods ``repro.spans`` lists."""
    names = set()
    for owner, attr, _ in SPANS:
        if inspect.ismodule(owner):
            names.add(f"{owner.__name__}:{attr}")
        else:
            cls = _defining_class(owner, attr)
            names.add(f"{cls.__module__}:{cls.__name__}.{attr}")
    return names


def test_every_public_name_has_a_use():
    found = set(unreached(definitions(SRC_FILES), USERS))
    assert sorted(found - set(ALLOWED) - bench_spans()) == []
    assert sorted(set(ALLOWED) - found) == []  # no stale allowance


def test_the_check_fails_on_a_name_only_tests_reach(tmp_path):
    module = tmp_path / "helpers.py"
    module.write_text(
        "def used():\n    return 1\n\n"
        "def only_tested():\n    return 2\n\n"
        "class Table:\n    def row(self):\n        return 3\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from helpers import only_tested, used\nTable().row\nused()\n")
    defined = list(definitions([module]))
    assert unreached(defined, [user]) == ["helpers:only_tested"]
    user.write_text("used()\nonly_tested()\nTable().row\n")
    assert unreached(defined, [user]) == []
