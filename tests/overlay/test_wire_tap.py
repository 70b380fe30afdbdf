"""Every billed byte is an encodable byte.

The transport bills each datagram ``msg.wire_size()`` bytes, and every
bandwidth table (Figs. 9-10, §6.1, the membership and gossip tables) is
that bill. These tests tap ``DatagramTransport.send`` / ``send_many`` on
one short run of each membership plane and of the full-mesh router, and
hold every datagram to the byte layouts of ``reference_wire.py``: its
payload is exactly ``wire_size() - HEADER_BYTES`` bytes, and decoding
the payload gives back every field the header does not carry. The only
tolerance is the wire's stated quantisation of latency (whole ms,
clamped to 16 bits).
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import reference_wire as ref
from repro.experiments.coordinator_failover import scenario_config
from repro.experiments.gossip_membership import gossip_config
from repro.experiments.replay import run_plan
from repro.net import packet
from repro.net.packet import (
    CoordinatorPull,
    LinkStateMessage,
    MembershipDelta,
    MembershipUpdate,
    Message,
)
from repro.net.transport import DatagramTransport
from repro.overlay.config import InBand, OverlayConfig, RouterKind
from repro.overlay.wire import HEADER_BYTES
from repro.workloads.faults import FaultPlan

N = 25
UNTIL_S = 200.0
#: The last two nodes join during the run.
INITIAL = tuple(range(N - 2))


def member_faults() -> FaultPlan:
    """A crash, a graceful leave and two joins."""
    return (
        FaultPlan()
        .fail_node(40.0, 3)
        .leave_node(70.0, 5)
        .join_node(90.0, N - 2)
        .join_node(120.0, N - 1)
    )


PLANES = {
    "out-of-band": lambda: (OverlayConfig(), member_faults(), RouterKind.QUORUM),
    "in-band-deltas": lambda: (
        OverlayConfig(membership=InBand(deltas=True), membership_timeout_s=90.0),
        member_faults(),
        RouterKind.QUORUM,
    ),
    "replicated": lambda: (
        scenario_config(k=3),
        member_faults().crash_coordinator(100.0, 0),
        RouterKind.QUORUM,
    ),
    "gossip": lambda: (gossip_config(), member_faults(), RouterKind.QUORUM),
    "full-mesh": lambda: (OverlayConfig(), member_faults(), RouterKind.FULL_MESH),
}


def tapped_run(plane):
    """Run ``plane`` with both send paths tapped: ``(overlay, datagrams)``,
    one ``(src, dst, msg)`` per datagram put on the wire or self-sent."""
    config, plan, router = PLANES[plane]()
    sent = []
    send, send_many = DatagramTransport.send, DatagramTransport.send_many

    def tap_send(self, src, dst, msg):
        sent.append((src, dst, msg))
        return send(self, src, dst, msg)

    def tap_send_many(self, src, dsts, msgs):
        addresses = np.asarray(dsts).tolist()
        if src not in addresses:  # otherwise it sends through ``send``
            each = [msgs] * len(addresses) if isinstance(msgs, Message) else msgs
            sent.extend((src, dst, msg) for dst, msg in zip(addresses, each))
        return send_many(self, src, dsts, msgs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DatagramTransport, "send", tap_send)
        patch.setattr(DatagramTransport, "send_many", tap_send_many)
        overlay, _ = run_plan(
            plan, N, seed=3, config=config, until_s=UNTIL_S, router=router,
            active_members=INITIAL,
        )
    return overlay, sent


@pytest.fixture(scope="module")
def runs():
    return {plane: tapped_run(plane) for plane in PLANES}


def _plain(value):
    """Arrays and tuples as nested lists, for one ``==`` comparison."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def assert_round_trips(msg):
    """``msg`` encodes to exactly its bill and decodes to its fields."""
    flags, payload = ref.encode(msg)
    assert HEADER_BYTES + len(payload) == msg.wire_size(), msg
    decoded = ref.decode(type(msg), flags, payload)
    fields = ref.message_fields(msg)
    assert set(decoded) == set(fields) - ref.header_fields(msg), type(msg)
    if isinstance(msg, LinkStateMessage):
        fields["row.latency_ms"] = ref.quantise_latency(fields["row.latency_ms"])
    for name, value in decoded.items():
        assert _plain(value) == _plain(fields[name]), (type(msg).__name__, name)


def message_classes():
    return [
        cls
        for cls in map(packet.__dict__.get, packet.__all__)
        if isinstance(cls, type) and issubclass(cls, Message) and cls is not Message
    ]


def test_every_message_class_has_a_reference_codec():
    classes = message_classes()
    assert len(classes) == 13
    assert sorted(c.__name__ for c in ref.CODECS) == sorted(c.__name__ for c in classes)


@pytest.mark.parametrize("plane", list(PLANES))
def test_every_datagram_encodes_to_its_bill(runs, plane):
    _, sent = runs[plane]
    seen = {}
    for _, _, msg in sent:
        if id(msg) not in seen:  # a broadcast sends one object many times
            seen[id(msg)] = msg
            assert_round_trips(msg)
    assert len(seen) > 100


def test_the_runs_send_every_class_but_the_pull(runs):
    """Twelve classes go on the wire; a replica's ``CoordinatorPull``
    (sent only after lost replication) round-trips by construction."""
    sent = {type(msg) for _, datagrams in runs.values() for _, _, msg in datagrams}
    assert sent == set(message_classes()) - {CoordinatorPull}
    assert_round_trips(CoordinatorPull(origin=N + 1, epoch=2, version=17))


def test_the_epoch_is_billed_and_encoded(runs):
    _, sent = runs["replicated"]
    deltas = [msg for _, _, msg in sent if isinstance(msg, MembershipDelta)]
    assert deltas and all(msg.epoch >= 1 for msg in deltas)
    flags, payload = ref.encode(deltas[0])
    assert flags & ref.EPOCH_FLAG
    assert ref.decode(MembershipDelta, flags, payload)["epoch"] == deltas[0].epoch
    legacy = dataclasses.replace(deltas[0], epoch=0)
    assert legacy.wire_size() == deltas[0].wire_size() - 4
    assert_round_trips(legacy)


def test_membership_counters_bill_what_the_transport_bills(runs):
    """The service's byte counters price the message it sends: on the
    replicated plane (epoch >= 1) that includes the epoch field."""
    overlay, sent = runs["replicated"]
    counters = Counter(overlay.membership.counters())
    billed, count = Counter(), Counter()
    for _, _, msg in sent:
        if isinstance(msg, (MembershipDelta, MembershipUpdate)):
            billed[type(msg)] += msg.wire_size()
            count[type(msg)] += 1
    assert count[MembershipDelta] == counters["view_delta_msgs"] > 0
    assert billed[MembershipDelta] == counters["view_delta_bytes"]
    # Bootstrap provisions the first view out of band: counted, not sent.
    bootstrap = MembershipUpdate(origin=N, members=INITIAL, epoch=1).wire_size()
    assert count[MembershipUpdate] == (
        counters["view_full_msgs"] + counters["parting_notices"] - len(INITIAL)
    )
    assert billed[MembershipUpdate] == (
        counters["view_full_bytes"]
        + counters["parting_notice_bytes"]
        - len(INITIAL) * bootstrap
    )
