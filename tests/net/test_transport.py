"""Tests for the datagram transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, TopologyError
from repro.net.packet import LinkStateMessage, RecommendationMessage
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.transport import DatagramTransport
from repro.overlay import wire
from repro.overlay.linkstate import LinkStateRow
from repro.overlay.stats import BandwidthRecorder
from repro.workloads.faults import FaultPlan


def make_setup(n=3, rtt=100.0, loss=None, failures=None, with_bw=True):
    rtt_m = np.full((n, n), rtt)
    np.fill_diagonal(rtt_m, 0.0)
    topo = Topology(rtt_m, loss=loss, failures=failures)
    sim = Simulator()
    bw = BandwidthRecorder(n) if with_bw else None
    transport = DatagramTransport(sim, topo, np.random.default_rng(1), bw)
    return sim, topo, transport, bw


def ls_msg(origin, n):
    return LinkStateMessage(
        origin=origin,
        row=LinkStateRow(0, np.full(n, 50.0), np.ones(n, dtype=bool)),
    )


class TestEndpoints:
    """Service endpoints co-located at a host node (in-band membership)."""

    def test_endpoint_traffic_uses_host_links(self):
        sim, topo, transport, bw = make_setup(rtt=100.0)
        got = []
        transport.register(2, lambda msg, src: got.append((sim.now, src)))
        transport.register_endpoint(3, host=0, handler=lambda m, s: None)
        transport.send(3, 2, ls_msg(3, 3))
        sim.run()
        # Delivered after the host<->node one-way delay, from address 3.
        assert got == [(0.050, 3)]
        # Bytes are accounted against the host node, not the address.
        assert bw.bytes_per_node(directions=("out",))[0] > 0

    def test_endpoint_receives_at_its_address(self):
        sim, topo, transport, _ = make_setup()
        got = []
        transport.register_endpoint(3, host=1, handler=lambda m, s: got.append(s))
        transport.send(0, 3, ls_msg(0, 3))
        sim.run()
        assert got == [0]

    def test_endpoint_to_its_own_host_is_lossless(self):
        loss = np.full((3, 3), 1.0)
        np.fill_diagonal(loss, 0.0)
        sim, topo, transport, _ = make_setup(loss=loss)
        got = []
        transport.register(0, lambda msg, src: got.append(src))
        transport.register_endpoint(3, host=0, handler=lambda m, s: None)
        assert transport.send(3, 0, ls_msg(3, 3))  # same machine: no wire
        sim.run()
        assert got == [3]

    def test_endpoint_can_reregister_after_outage(self):
        sim, topo, transport, _ = make_setup()
        got = []
        transport.register_endpoint(3, host=0, handler=lambda m, s: got.append(s))
        transport.unregister(3)
        transport.send(1, 3, ls_msg(1, 3))
        sim.run()
        assert got == []  # dropped during the outage window
        transport.register(3, lambda m, s: got.append(s))
        transport.send(1, 3, ls_msg(1, 3))
        sim.run()
        assert got == [1]

    def test_bad_host_rejected(self):
        sim, topo, transport, _ = make_setup()
        with pytest.raises(SimulationError):
            transport.register_endpoint(9, host=7, handler=lambda m, s: None)

    def test_colliding_address_rejected(self):
        sim, topo, transport, _ = make_setup()
        transport.register(1, lambda m, s: None)
        with pytest.raises(SimulationError):
            transport.register_endpoint(1, host=0, handler=lambda m, s: None)


class TestDelivery:
    def test_message_arrives_after_one_way_delay(self):
        sim, topo, transport, _ = make_setup(rtt=100.0)
        got = []
        transport.register(1, lambda msg, src: got.append((sim.now, src)))
        transport.send(0, 1, ls_msg(0, 3))
        sim.run()
        assert got == [(0.050, 0)]

    def test_self_send_is_synchronous(self):
        sim, topo, transport, bw = make_setup()
        got = []
        transport.register(0, lambda msg, src: got.append(src))
        transport.send(0, 0, ls_msg(0, 3))
        assert got == [0]
        # no bytes accounted for local delivery
        assert bw.bytes_per_node().sum() == 0

    def test_unregistered_destination_drops(self):
        sim, topo, transport, _ = make_setup()
        assert transport.send(0, 2, ls_msg(0, 3))
        sim.run()
        assert transport.dropped_count == 1

    def test_duplicate_registration_rejected(self):
        _, _, transport, _ = make_setup()
        transport.register(0, lambda m, s: None)
        with pytest.raises(SimulationError):
            transport.register(0, lambda m, s: None)

    def test_unregister_stops_delivery(self):
        sim, topo, transport, _ = make_setup()
        got = []
        transport.register(1, lambda msg, src: got.append(src))
        transport.send(0, 1, ls_msg(0, 3))
        transport.unregister(1)
        sim.run()
        assert got == []


class TestLoss:
    def test_total_loss_drops_everything(self):
        n = 3
        loss = np.ones((n, n))
        np.fill_diagonal(loss, 0.0)
        sim, topo, transport, _ = make_setup(loss=loss)
        got = []
        transport.register(1, lambda msg, src: got.append(src))
        for _ in range(20):
            transport.send(0, 1, ls_msg(0, n))
        sim.run()
        assert got == []
        assert transport.dropped_count == 20

    def test_loss_rate_statistical(self):
        n = 3
        loss = np.full((n, n), 0.4)
        np.fill_diagonal(loss, 0.0)
        sim, topo, transport, _ = make_setup(loss=loss)
        got = []
        transport.register(1, lambda msg, src: got.append(src))
        for _ in range(2000):
            transport.send(0, 1, ls_msg(0, n))
        sim.run()
        assert 0.52 < len(got) / 2000 < 0.68


class TestCoalescedDelivery:
    """Same-arrival datagrams share one delivery event (PR 4).

    Loss is still drawn per message at send time and handlers still run
    once per message in send order, so protocol behavior and RNG streams
    are untouched — only the event-queue footprint shrinks.
    """

    def test_same_tick_same_pair_shares_one_event(self):
        sim, topo, transport, _ = make_setup()
        got = []
        transport.register(1, lambda msg, src: got.append((sim.now, msg)))
        a = ls_msg(0, 3)
        b = RecommendationMessage(origin=0, entries=[(1, 2)])
        transport.send(0, 1, a)
        transport.send(0, 1, b)
        assert transport.coalesced_count == 1
        assert sim.pending() == 1  # one heap entry for two datagrams
        sim.run()
        assert [m for _, m in got] == [a, b]  # send order preserved
        assert got[0][0] == got[1][0] == 0.050
        assert transport.delivered_count == 2

    def test_distinct_arrivals_not_coalesced(self):
        rtt_m = np.array(
            [[0.0, 100.0, 80.0], [100.0, 0.0, 60.0], [80.0, 60.0, 0.0]]
        )
        topo = Topology(rtt_m)
        sim = Simulator()
        transport = DatagramTransport(sim, topo, np.random.default_rng(1))
        transport.register(1, lambda m, s: None)
        transport.send(0, 1, ls_msg(0, 3))
        transport.send(2, 1, ls_msg(2, 3))
        assert transport.coalesced_count == 0
        assert sim.pending() == 2

    def test_unregister_mid_batch_drops_rest(self):
        sim, topo, transport, _ = make_setup()
        got = []

        def handler(msg, src):
            got.append(msg)
            transport.unregister(1)

        transport.register(1, handler)
        a, b = ls_msg(0, 3), ls_msg(0, 3)
        transport.send(0, 1, a)
        transport.send(0, 1, b)
        sim.run()
        assert got == [a]
        assert transport.dropped_count == 1

    def test_bandwidth_counted_per_message(self):
        sim, topo, transport, bw = make_setup()
        transport.register(1, lambda m, s: None)
        a = ls_msg(0, 3)
        b = RecommendationMessage(origin=0, entries=[(1, 2)])
        transport.send(0, 1, a)
        transport.send(0, 1, b)
        sim.run()
        assert (
            bw.bytes_per_node(directions=("in",))[1]
            == a.wire_size() + b.wire_size()
        )


class TestAccounting:
    def test_out_bytes_counted_even_for_lost_messages(self):
        n = 3
        loss = np.ones((n, n))
        np.fill_diagonal(loss, 0.0)
        sim, topo, transport, bw = make_setup(loss=loss)
        transport.register(1, lambda m, s: None)
        msg = ls_msg(0, n)
        transport.send(0, 1, msg)
        sim.run()
        assert bw.bytes_per_node(directions=("out",))[0] == msg.wire_size()
        assert bw.bytes_per_node(directions=("in",))[1] == 0

    def test_in_bytes_counted_on_delivery(self):
        sim, topo, transport, bw = make_setup()
        transport.register(1, lambda m, s: None)
        msg = ls_msg(0, 3)
        transport.send(0, 1, msg)
        sim.run()
        assert bw.bytes_per_node(directions=("in",))[1] == msg.wire_size()

    def test_wire_sizes_match_paper_formulas(self):
        n = 100
        msg = ls_msg(0, n)
        assert msg.wire_size() == wire.HEADER_BYTES + 3 * n
        rec = RecommendationMessage(origin=0, entries=[(1, 2)] * 20)
        assert rec.wire_size() == wire.HEADER_BYTES + 4 * 20

    def test_kind_separation(self):
        sim, topo, transport, bw = make_setup()
        transport.register(1, lambda m, s: None)
        transport.send(0, 1, ls_msg(0, 3))
        transport.send(0, 1, RecommendationMessage(origin=0, entries=[(1, 2)]))
        sim.run()
        ls_bytes = bw.bytes_per_node(kinds=("ls",))
        rec_bytes = bw.bytes_per_node(kinds=("rec",))
        assert ls_bytes[0] > 0 and rec_bytes[0] > 0
        assert ls_bytes[0] != rec_bytes[0]


# ----------------------------------------------------------------------
# send_many == the loop of send
# ----------------------------------------------------------------------
@st.composite
def fanout_worlds(draw):
    """A small underlay with loss, outages, endpoints and unregistered
    nodes, plus a script of fan-outs to replay on it."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Few distinct RTTs, so arrivals collide and datagrams coalesce.
    rtt = np.zeros((n, n))
    loss = np.zeros((n, n))
    plan = FaultPlan()
    for i, j in pairs:
        rtt[i, j] = rtt[j, i] = draw(st.sampled_from([20.0, 40.0, 60.0]))
        loss[i, j] = loss[j, i] = draw(st.sampled_from([0.0, 0.0, 0.3, 0.7, 1.0]))
        if draw(st.integers(0, 3)) == 0:
            start = draw(st.sampled_from([0.0, 0.02, 0.05]))
            plan.partition(start, start + 0.04, (i,), (j,))
    for i in range(n):
        # An endpoint talking to its own host never touches the wire,
        # whatever the matrix says about the diagonal.
        loss[i, i] = draw(st.sampled_from([0.0, 1.0]))
    down = [i for i in range(n) if draw(st.integers(0, 5)) == 0]
    if down:
        plan.node_outage(0.01, 0.06, down)
    failures = plan.failure_table(n) if draw(st.booleans()) else None
    registered = [i for i in range(n) if draw(st.integers(0, 4)) > 0]
    # Service endpoints: above the node range and, sometimes, at the
    # address of a node that never registered.
    endpoints = {}
    for address in range(n, n + draw(st.integers(0, 2))):
        endpoints[address] = draw(st.integers(0, n - 1))
    spare = [i for i in range(n) if i not in registered]
    if spare and draw(st.booleans()):
        endpoints[spare[0]] = draw(st.integers(0, n - 1))
    addresses = list(range(n)) + sorted(a for a in endpoints if a >= n)
    address = st.sampled_from(addresses)
    script = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.004, 0.03]),  # advance before sending
                address,  # src
                st.lists(address, max_size=8),  # dsts: src, duplicates allowed
                st.booleans(),  # one message for all / one per destination
            ),
            min_size=1,
            max_size=8,
        )
    )
    quitter = draw(st.sampled_from(addresses))  # unregisters on first delivery
    forwarder = draw(st.sampled_from(addresses))  # sends when it receives
    seed = draw(st.integers(0, 2**32 - 1))
    return (n, rtt, loss, failures, registered, endpoints, script, quitter, forwarder, seed)


def _replay(world, fan_out):
    """Run the script with ``fan_out(transport, src, dsts, msgs)`` doing
    the sending; returns every observable of the run."""
    n, rtt, loss, failures, registered, endpoints, script, quitter, forwarder, seed = world
    sim = Simulator()
    bw = BandwidthRecorder(n, bucket_s=0.01)
    rng = np.random.default_rng(seed)
    transport = DatagramTransport(sim, Topology(rtt, loss, failures), rng, bw)
    deliveries = []
    # ``view_version`` doubles as a serial number, so the delivery log
    # can say *which* message arrived.
    serial = iter(range(1, 10_000))
    echo = ls_msg(forwarder, n)
    echo.view_version = -1

    def handler_for(address):
        def handler(msg, src):
            deliveries.append((sim.now, address, src, msg.kind, msg.view_version))
            if address == quitter:
                transport.unregister(address)
            if address == forwarder and msg is not echo:
                # Re-enters the transport: draws loss, takes a sequence
                # number — synchronously when this is a self-send.
                transport.send(address, (address + 1) % n, echo)

        return handler

    for i in registered:
        transport.register(i, handler_for(i))
    for address, host in endpoints.items():
        transport.register_endpoint(address, host, handler_for(address))

    results, heaps = [], []
    for advance, src, dsts, broadcast in script:
        sim.run_until(sim.now + advance)
        if broadcast:
            msgs = ls_msg(src, n)
            msgs.view_version = next(serial)
        else:
            # Mixed kinds and sizes, one per destination.
            msgs = [
                ls_msg(src, n)
                if k % 3 == 0
                else RecommendationMessage(origin=src, entries=[(0, 1)] * (k + 1))
                for k in range(len(dsts))
            ]
            for msg in msgs:
                msg.view_version = next(serial)
        results.append([bool(ok) for ok in fan_out(transport, src, dsts, msgs)])
        heaps.append(sorted((time, seq) for time, seq, _ in sim._queue))
    sim.run()
    bins = {key: arr.tolist() for key, arr in sorted(bw._bins.items())}
    counts = (
        transport.sent_count,
        transport.dropped_count,
        transport.delivered_count,
        transport.coalesced_count,
        sim.events_run,
    )
    assert all(type(count) is int for count in counts)  # no numpy scalars leak
    return results, heaps, deliveries, counts, bins, rng.bit_generator.state


def _loop_of_send(transport, src, dsts, msgs):
    each = msgs if isinstance(msgs, list) else [msgs] * len(dsts)
    return [transport.send(src, dst, msg) for dst, msg in zip(dsts, each)]


class TestSendMany:
    @settings(max_examples=300, deadline=None)
    @given(fanout_worlds())
    def test_send_many_equals_the_loop_of_send(self, world):
        """Same return values, same ``(time, seq)`` of every scheduled
        event after every fan-out, same delivery sequence ``(time, dst,
        src, msg)`` (including "unregister mid-bucket drops the rest"
        and a handler that sends from inside a synchronous
        self-delivery), same counters, same bandwidth bins and the same
        RNG state afterwards."""
        looped = _replay(world, _loop_of_send)
        fanned = _replay(
            world, lambda transport, src, dsts, msgs: transport.send_many(src, dsts, msgs)
        )
        for name, a, b in zip(
            ("results", "heaps", "deliveries", "counts", "bins", "rng"), looped, fanned
        ):
            assert a == b, name

    def test_unregister_mid_bucket_drops_the_rest(self):
        sim, topo, transport, _ = make_setup()
        got = []

        def handler(msg, src):
            got.append(msg)
            transport.unregister(1)

        transport.register(1, handler)
        a, b = ls_msg(0, 3), ls_msg(0, 3)
        transport.send_many(0, [1, 1], [a, b])
        assert transport.coalesced_count == 1
        sim.run()
        assert got == [a]
        assert transport.dropped_count == 1

    def test_one_draw_per_up_and_lossy_destination_in_order(self):
        n = 5
        loss = np.zeros((n, n))
        loss[0, 2] = loss[2, 0] = 0.5
        loss[0, 4] = loss[4, 0] = 0.5
        failures = FaultPlan().partition(0.0, 1.0, (0,), (4,)).failure_table(n)
        sim, topo, transport, _ = make_setup(n=n, loss=loss, failures=failures)
        reference = np.random.default_rng(1)  # make_setup's seed
        in_flight = transport.send_many(0, [1, 2, 3, 4], ls_msg(0, n))
        # Only 0->2 is both up and lossy: exactly one draw was consumed.
        assert in_flight.tolist() == [True, bool(reference.random() >= 0.5), True, False]
        assert transport._rng.bit_generator.state == reference.bit_generator.state

    def test_message_count_must_match_destinations(self):
        sim, topo, transport, _ = make_setup()
        with pytest.raises(SimulationError):
            transport.send_many(0, [1, 2], [ls_msg(0, 3)])

    def test_out_of_range_address_rejected_before_anything_is_sent(self):
        sim, topo, transport, bw = make_setup()
        with pytest.raises(TopologyError):
            transport.send_many(0, [1, 7], ls_msg(0, 3))
        assert transport.sent_count == 0
        assert bw.bytes_per_node().sum() == 0

    def test_empty_fan_out_is_a_no_op(self):
        sim, topo, transport, _ = make_setup()
        assert transport.send_many(0, [], ls_msg(0, 3)).tolist() == []
        assert transport.send_many(0, [], []).tolist() == []
        assert transport.sent_count == 0 and sim.pending() == 0
