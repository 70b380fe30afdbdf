"""The extensions no table measured stay removed.

§4.1 footnote 8's relay to an unreachable failover rendezvous, §6.2.2
footnote 11's timestamped recommendation entries and RON's loss /
combined path metrics were overlay options that no results table,
bench workload, example or experiment turned on (``results/README.md``,
"Not reproduced"). An option comes back together with the table that
measures it; until then these guards keep its config field, message
fields and per-node state out of the tree.

The same holds for churn generators no table, workload or example
replays (``ChurnTrace.crash_reboot``, ``poisson_diurnal``), and for the
second copies of a route decision: ``QuorumRouter`` has one route kernel
and one recommendation install, so the scalar lookup, the scalar
install and the helpers only they called stay gone. Likewise the
membership experiments run the overlay's ``CallbackClient`` /
``WireClient``, so their private copies of those clients, and the
per-node refresh counts only the wire copy kept, stay gone. And member
events reach an overlay only through ``FaultPlan``: the second
scheduler (``repro.workloads.engine``'s ``ChurnWorkload`` /
``run_churn_workload``), its event type ``MemberEvent`` and the
recorder marks only it set stay gone. So does the churn-rate sweep
(``run_rate_sweep`` behind ``churn --full``) that no results table
published. So do the routing-message fields that no receiver read and
the byte bill did not price: ``LinkStateMessage.sec`` (multi-hop link
state is priced by ``wire.linkstate_message_bytes(n, multihop=True)``)
and ``sent_at``.
"""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import repro.core
import repro.workloads
from repro.cli import build_parser
from repro.experiments import churn, membership_scaling
from repro.core.failover import FailoverManager
from repro.core.grid import GridQuorum
from repro.net import packet
from repro.net.packet import LinkStateMessage, RecommendationMessage
from repro.overlay import wire
from repro.overlay.config import OverlayConfig
from repro.overlay.linkstate import LinkStateRow, LinkStateTable, SparseLinkStateTable
from repro.overlay.monitor import LinkMonitor
from repro.overlay.router_base import RouterBase
from repro.overlay.router_quorum import QuorumRouter
from repro.overlay.stats import DisruptionRecorder
from repro.workloads import ChurnTrace, faults

REPO_ROOT = Path(__file__).resolve().parents[1]


def row10():
    return LinkStateRow(0, np.zeros(10), np.ones(10, dtype=bool))


@pytest.mark.parametrize(
    "option, value",
    [
        ("relay_failover", True),
        ("timestamped_recommendations", True),
        ("path_metric", "loss"),
        ("loss_penalty_ms", 100.0),
    ],
)
def test_overlay_config_rejects_removed_option(option, value):
    assert option not in OverlayConfig.__dataclass_fields__
    with pytest.raises(TypeError):
        OverlayConfig(**{option: value})


def test_core_metrics_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.metrics")


@pytest.mark.parametrize(
    "name", ["PathMetric", "combine_latency_loss", "cost_to_loss", "loss_to_cost"]
)
def test_repro_core_exports_no_loss_metric(name):
    assert name not in repro.core.__all__
    assert not hasattr(repro.core, name)


def test_packet_has_no_relay_envelope():
    assert "RelayEnvelope" not in packet.__all__
    assert not hasattr(packet, "RelayEnvelope")


def test_linkstate_message_has_no_relay_via():
    with pytest.raises(TypeError):
        LinkStateMessage(origin=0, row=row10(), relay_via=3)


def test_recommendation_message_has_no_timestamped_flag():
    with pytest.raises(TypeError):
        RecommendationMessage(origin=0, entries=[(1, 2)], timestamped=True)


def test_linkstate_message_has_no_sec():
    with pytest.raises(TypeError):
        LinkStateMessage(origin=0, row=row10(), sec=np.zeros(10))


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinkStateMessage(origin=0, row=row10(), sent_at=1.0),
        lambda: RecommendationMessage(origin=0, entries=[(1, 2)], sent_at=1.0),
    ],
    ids=["linkstate", "recommendation"],
)
def test_routing_messages_have_no_sent_at(build):
    with pytest.raises(TypeError):
        build()


def test_wire_has_no_timestamped_entry_size():
    assert not hasattr(wire, "TIMESTAMPED_REC_ENTRY_BYTES")


def test_linkstate_row_has_no_loss_column():
    with pytest.raises(TypeError):
        LinkStateRow(0, np.zeros(3), np.ones(3, dtype=bool), np.zeros(3))
    assert not hasattr(row10(), "loss")


@pytest.mark.parametrize("attr", ["loss_est", "loss_row"])
def test_monitor_keeps_no_loss_estimate(attr):
    assert attr not in LinkMonitor.__slots__
    assert not hasattr(LinkMonitor, attr)


def test_failover_poll_takes_no_allow_relay():
    mgr = FailoverManager(0, np.random.default_rng(1))
    mgr.set_grid(GridQuorum(list(range(9))), now=0.0)
    up = np.ones(9, dtype=bool)
    with pytest.raises(TypeError):
        mgr.poll(10.0, up, lambda _: True, allow_relay=True)


def test_src_repro_names_no_removed_extension():
    """What is left of the words is the always-empty field ``bench/``
    reads and ``net/trace.py``'s prose about detours."""
    pattern = re.compile(r"relay|timestamped|PathMetric|loss_penalty|loss_est", re.I)
    hits = [
        f"{path.relative_to(REPO_ROOT / 'src' / 'repro')}: {line.strip()}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for line in path.read_text().splitlines()
        if pattern.search(line)
    ]
    assert hits == [
        "core/failover.py: adopted_via_relay: List[Tuple[int, int]] = field(default_factory=list)",
        "net/trace.py: direct path can be beaten by relaying through a well-connected host.",
    ]


REMOVED_METHODS = [
    (ChurnTrace, "crash_reboot"),
    (ChurnTrace, "poisson_diurnal"),
    (QuorumRouter, "_apply_entries_scalar"),
    (QuorumRouter, "_redundant_route"),
    (QuorumRouter, "_cross_validated_hop"),
    (RouterBase, "link_up_view"),
    (LinkStateTable, "cost_gather"),
    (SparseLinkStateTable, "cost_gather"),
]


@pytest.mark.parametrize(
    "owner, name", REMOVED_METHODS, ids=[f"{o.__name__}.{n}" for o, n in REMOVED_METHODS]
)
def test_removed_method_stays_gone(owner, name):
    assert not hasattr(owner, name)


def test_route_vector_has_no_per_destination_loop():
    assert RouterBase.route_vector.__isabstractmethod__


def test_src_repro_names_no_removed_method():
    names = {name for _, name in REMOVED_METHODS}
    hits = [
        f"{path.relative_to(REPO_ROOT / 'src' / 'repro')}: {name}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for name in sorted(names)
        if name in path.read_text()
    ]
    assert hits == []


@pytest.mark.parametrize("name", ["_InBandMember", "_MirrorSubscriber"])
def test_membership_experiments_keep_no_client_copy(name):
    assert not hasattr(membership_scaling, name)


@pytest.mark.parametrize("field_name", ["refresh_msgs", "refresh_bytes"])
def test_in_band_stats_count_no_refreshes(field_name):
    fields = membership_scaling.InBandMembershipStats.__dataclass_fields__
    assert field_name not in fields


def test_churn_workload_engine_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.workloads.engine")


@pytest.mark.parametrize("name", ["ChurnWorkload", "run_churn_workload"])
def test_workloads_export_no_second_scheduler(name):
    assert name not in repro.workloads.__all__
    assert not hasattr(repro.workloads, name)


def test_fault_plan_has_no_member_event_type():
    assert "MemberEvent" not in faults.__all__
    assert not hasattr(faults, "MemberEvent")


@pytest.mark.parametrize("name", ["mark", "marks", "_marks"])
def test_disruption_recorder_keeps_no_marks(name):
    assert not hasattr(DisruptionRecorder, name)
    assert not hasattr(DisruptionRecorder(4), name)


def test_src_repro_names_no_second_fault_replayer():
    names = ("workloads.engine", "ChurnWorkload", "run_churn_workload", "MemberEvent", ".mark(")
    hits = [
        f"{path.relative_to(REPO_ROOT / 'src' / 'repro')}: {name}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for name in names
        if name in path.read_text()
    ]
    assert hits == []


@pytest.mark.parametrize("name", ["run_rate_sweep", "RateSweepResult"])
def test_churn_experiments_keep_no_rate_sweep(name):
    assert name not in churn.__all__
    assert not hasattr(churn, name)


def test_churn_full_flag_is_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["churn", "--full"])
