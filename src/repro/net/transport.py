"""Unreliable datagram transport over the simulated underlay.

Routing messages are individually subject to the topology's loss model and
injected outages, and are delivered after one one-way delay (RTT/2). Every
send and every delivery is accounted with the message's compact wire size,
which is what the §6.1 bandwidth comparison measures.

Loss semantics match UDP: a dropped message still costs the sender its
outgoing bytes but the receiver never sees it (the paper notes measured
bandwidth lands slightly *below* theory for exactly this reason).

The paper's protocol is all fan-outs (a link-state row to ~2 sqrt(n)
rendezvous servers, a recommendation to each client, the full-mesh
broadcast), so there are two entry points: :meth:`DatagramTransport.send`
for one datagram and :meth:`DatagramTransport.send_many` for one source's
whole tick. They are held equal by a property test
(``tests/net/test_transport.py``), and these guarantees are what every
published table rests on:

* **Ordering.** Datagrams are put in flight in the order given. A
  datagram arriving at ``(dst, arrival)`` joins the bucket for that key,
  appended after earlier sends; the first one creates the bucket and
  schedules its one delivery event, so simulator sequence numbers are
  handed out in send order and ties at one instant fire in send order.
  ``send_many(src, dsts, msgs)`` schedules exactly the events, with
  exactly the ``(time, seq)``, that ``for d, m: send(src, d, m)`` would.
* **RNG stream.** Loss is drawn at send time, in send order, and only
  for datagrams whose link is up and whose loss probability is
  positive. ``send_many`` draws them with one ``rng.random(m)``, which
  consumes the ``Generator`` exactly as ``m`` scalar draws do.
* **Arithmetic.** ``arrival = now + rtt_ms / 2000.0`` in float64 in both
  forms; byte counters are integers, so one bulk ``record_out`` equals
  the per-datagram sum.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.net.packet import Message
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.overlay.stats import BandwidthRecorder

__all__ = ["DatagramTransport"]

DeliveryHandler = Callable[[Message, int], None]


class DatagramTransport:  # reprolint: disable=RL002(one shared transport per simulation, not per node)
    """Best-effort message delivery between overlay nodes.

    Parameters
    ----------
    sim:
        The discrete-event simulator supplying the clock.
    topology:
        Underlay answering delay/loss/outage queries.
    rng:
        Random source for loss sampling (deterministic per seed).
    bandwidth:
        Optional byte accounting; ``None`` disables accounting.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        rng: np.random.Generator,
        bandwidth: Optional[BandwidthRecorder] = None,
    ):
        self._sim = sim
        self._topology = topology
        self._rng = rng
        self._bandwidth = bandwidth
        self._handlers: Dict[int, DeliveryHandler] = {}
        self._registered = np.zeros(topology.n, dtype=bool)
        #: Endpoint address -> hosting underlay node. Services (the
        #: membership coordinator) get their own address but share their
        #: host's links, delays, and byte accounting.
        self._host_of: Dict[int, int] = {}
        #: Smallest endpoint address: a fan-out addressed entirely below
        #: it needs no address -> host translation.
        self._lowest_endpoint = np.inf
        #: In-flight messages coalesced per (dst, arrival time): one
        #: simulator event delivers the whole bucket, instead of one
        #: heap entry per datagram. Messages append in send order and
        #: deliver in that order, so any pre-existing delivery order is
        #: preserved exactly (ties beyond a bucket share an arrival
        #: instant only on exact float equality, which same-source
        #: same-tick sends produce and distinct delays do not).
        self._pending: Dict[
            Tuple[int, float], List[Tuple[int, Message, str, int]]
        ] = {}
        self.sent_count = 0
        self.dropped_count = 0
        self.delivered_count = 0
        #: Diagnostic: datagrams that shared a delivery event with an
        #: earlier one (no heap entry of their own).
        self.coalesced_count = 0

    @property
    def topology(self) -> Topology:
        return self._topology

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler: DeliveryHandler) -> None:
        """Attach a delivery handler for ``node_id``."""
        if node_id in self._handlers:
            raise SimulationError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        if 0 <= node_id < self._registered.shape[0]:
            self._registered[node_id] = True

    def register_endpoint(
        self, address: int, host: int, handler: DeliveryHandler
    ) -> None:
        """Register a service endpoint co-located at underlay node ``host``.

        The endpoint is addressable like a node (``send(..., address,
        ...)``) but its traffic traverses — and is accounted against —
        its host's links: loss, outages, and delay between the endpoint
        and any node are those of the ``host <-> node`` path. This is
        how control-plane services (the in-band membership coordinator)
        share the data plane instead of enjoying out-of-band delivery.
        """
        if not 0 <= host < self._topology.n:
            raise SimulationError(f"endpoint host {host} is not a topology node")
        if address in self._handlers:
            raise SimulationError(f"address {address} already registered")
        self._handlers[address] = handler
        self._host_of[address] = host
        self._lowest_endpoint = min(self._lowest_endpoint, address)

    def unregister(self, node_id: int) -> None:
        """Detach ``node_id``; in-flight messages to it are dropped.

        Endpoints keep their host mapping, so one can re-``register`` at
        the same address after an outage window.
        """
        self._handlers.pop(node_id, None)
        if 0 <= node_id < self._registered.shape[0]:
            self._registered[node_id] = False

    def registered_vector(self) -> np.ndarray:
        """Per-node registration mask (read-only; do not mutate).

        A node that tore down its binding (left or crashed) reads False:
        probes and messages to it go unanswered, which is how peers'
        monitors come to detect an overlay-level crash."""
        return self._registered

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, msg: Message) -> bool:
        """Send ``msg`` from ``src`` to ``dst``.

        Returns True if the message was put in flight (it may still be
        lost), False if it was dropped immediately (link down / loss).
        Self-sends deliver synchronously without any byte accounting.
        """
        now = self._sim.now
        if src == dst:
            handler = self._handlers.get(dst)
            if handler is not None:
                handler(msg, src)
            return True

        kind = msg.kind
        size = msg.wire_size()
        src_u = self._host_of.get(src, src)
        dst_u = self._host_of.get(dst, dst)
        if self._bandwidth is not None:
            self._bandwidth.record_out(src_u, kind, size, now)
        self.sent_count += 1

        if not self._topology.packet_delivered(src_u, dst_u, now, self._rng):
            self.dropped_count += 1
            return False

        # Loss is drawn above, at send time and in send order, so
        # coalescing deliveries cannot perturb the RNG stream.
        arrival = now + self._topology.one_way_delay_s(src_u, dst_u)
        self._enqueue(src, dst, arrival, msg, kind, size)
        return True

    def send_many(
        self,
        src: int,
        dsts: Union[np.ndarray, Sequence[int]],
        msgs: Union[Message, Sequence[Message]],
    ) -> np.ndarray:
        """Send from ``src`` to every address in ``dsts``, in that order.

        ``msgs`` is one message for all destinations (a broadcast) or one
        message per destination. Equivalent in every observable — event
        times and sequence numbers, the loss RNG stream, counters, byte
        bins — to calling :meth:`send` for each pair in turn, and returns
        those calls' results as a boolean array. (Out-of-range addresses
        are rejected before anything is sent, not at their turn.)
        """
        dsts = np.asarray(dsts, dtype=np.int64)
        k = dsts.shape[0]
        broadcast = isinstance(msgs, Message)
        if not broadcast and len(msgs) != k:
            raise SimulationError(
                f"send_many: {len(msgs)} messages for {k} destinations"
            )
        if k == 0:
            return np.zeros(0, dtype=bool)
        addresses = dsts.tolist()
        if src in addresses:
            # A self-send delivers synchronously and its handler may send
            # in turn; only the scalar loop interleaves that correctly.
            each = [msgs] * k if broadcast else msgs
            return np.array(
                [self.send(src, dst, msg) for dst, msg in zip(addresses, each)]
            )

        now = self._sim.now
        hosts = self._host_of
        src_u = hosts.get(src, src)
        dst_u = dsts
        if hosts and dsts.max() >= self._lowest_endpoint:
            dst_u = np.array([hosts.get(d, d) for d in addresses], dtype=np.int64)
        in_flight, delay_s = self._topology.deliver_many(src_u, dst_u, now, self._rng)

        # One (message, kind, size) per datagram; bytes leave the sender
        # whether or not the datagram survives (integer sums, so one
        # record per kind equals the per-datagram records).
        if broadcast:
            parcels = [(msgs, msgs.kind, msgs.wire_size())] * k
            out_bytes = {parcels[0][1]: parcels[0][2] * k}
        else:
            parcels = [(msg, msg.kind, msg.wire_size()) for msg in msgs]
            out_bytes = {}
            for _, kind, size in parcels:
                out_bytes[kind] = out_bytes.get(kind, 0) + size
        if self._bandwidth is not None:
            for kind, nbytes in out_bytes.items():
                self._bandwidth.record_out(src_u, kind, nbytes, now)
        self.sent_count += k

        arrivals = now + delay_s
        dropped = k - int(np.count_nonzero(in_flight))
        if dropped:
            self.dropped_count += dropped
            sent = np.flatnonzero(in_flight)
            addresses, arrivals = dsts[sent].tolist(), arrivals[sent]
            parcels = [parcels[i] for i in sent.tolist()]
        enqueue = self._enqueue
        for dst, arrival, (msg, kind, size) in zip(
            addresses, arrivals.tolist(), parcels
        ):
            enqueue(src, dst, arrival, msg, kind, size)
        return in_flight

    def _enqueue(
        self, src: int, dst: int, arrival: float, msg: Message, kind: str, size: int
    ) -> None:
        """Put one surviving datagram in flight (shared by both sends)."""
        key = (dst, arrival)
        bucket = self._pending.get(key)
        if bucket is None:
            self._pending[key] = bucket = []
            self._sim.schedule_at(arrival, self._deliver_bucket, key)
        else:
            self.coalesced_count += 1
        bucket.append((src, msg, kind, size))

    def _deliver_bucket(self, key: Tuple[int, float]) -> None:
        """Deliver every message of the ``(dst, arrival)`` bucket ``key``.

        The handler is re-resolved per message: delivering one message
        may tear the destination down (or re-register it), and later
        messages in the bucket must see that, exactly as they would
        have with one event each.
        """
        batch = self._pending.pop(key)
        dst, now = key  # the event fires at the bucket's arrival time
        bandwidth = self._bandwidth
        dst_u = self._host_of.get(dst, dst)
        for src, msg, kind, size in batch:
            handler = self._handlers.get(dst)
            if handler is None:
                self.dropped_count += 1
                continue
            if bandwidth is not None:
                bandwidth.record_in(dst_u, kind, size, now)
            self.delivered_count += 1
            handler(msg, src)
