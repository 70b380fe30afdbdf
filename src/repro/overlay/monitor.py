"""Link monitoring (§5 "Link Monitoring").

Every node probes every other node once per probing interval, maintaining
an exponentially weighted moving average of latency and a liveness flag.
A node is marked failed after ``PROBES_TO_FAIL`` (5) consecutive losses.
RON's rapid failure detection is implemented: after a first probe loss the
monitor immediately schedules follow-up probes at a short interval, so the
five losses needed for a down verdict fit inside one probing interval.

For speed the regular probe round is vectorized — one simulator event per
node per interval evaluates all ``n-1`` links against the topology's
ground truth and samples request/reply losses. Probe bandwidth (request
out, request in, reply out, reply in — 4 x 46 bytes per probed pair per
interval) is accounted exactly as the per-packet transport would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import DatagramTransport

from repro.errors import ConfigError
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.overlay import wire
from repro.overlay.config import (
    EWMA_ALPHA,
    PROBE_INTERVAL_S,
    PROBES_TO_FAIL,
    RAPID_PROBE_INTERVAL_S,
)
from repro.overlay.stats import KIND_PROBE, BandwidthRecorder

__all__ = ["LinkMonitor"]

LinkCallback = Callable[[int], None]


class LinkMonitor:
    """Per-node latency/liveness estimation over the simulated underlay.

    Parameters
    ----------
    me:
        This node's view index (also its topology index).
    on_link_down / on_link_up:
        Callbacks invoked with the peer index on liveness transitions;
        the quorum router uses these to trigger immediate failover
        evaluation (§4.1's "immediately selects another ...").
    transport:
        When provided, a probe only succeeds if the peer's overlay
        process is bound to the transport: a crashed node's links may be
        fine at the underlay, but its prober is dead, so peers see
        losses and (correctly) declare the path down.
    """

    __slots__ = (
        "me",
        "n",
        "_sim",
        "_topology",
        "_rng",
        "_bandwidth",
        "_transport",
        "on_link_down",
        "on_link_up",
        "est_rtt_ms",
        "alive",
        "consecutive_losses",
        "version",
        "_rapid_pending",
        "_timer",
        "_measurement_noise",
    )

    def __init__(
        self,
        me: int,
        sim: Simulator,
        topology: Topology,
        rng: np.random.Generator,
        bandwidth: Optional[BandwidthRecorder] = None,
        on_link_down: Optional[LinkCallback] = None,
        on_link_up: Optional[LinkCallback] = None,
        transport: Optional["DatagramTransport"] = None,
    ):
        n = topology.n
        if not 0 <= me < n:
            raise ConfigError(f"monitor index {me} out of range for n={n}")
        self.me = me
        self.n = n
        self._sim = sim
        self._topology = topology
        self._rng = rng
        self._bandwidth = bandwidth
        self._transport = transport
        self.on_link_down = on_link_down
        self.on_link_up = on_link_up

        self.est_rtt_ms = np.full(n, np.inf)
        self.est_rtt_ms[me] = 0.0
        self.alive = np.ones(n, dtype=bool)
        #: Probe losses in a row per peer; a count never nears 2**31.
        self.consecutive_losses = np.zeros(n, dtype=np.int32)
        #: Bumped whenever row-visible state (RTT/liveness
        #: estimates) changes; routers use it to skip rebuilding their
        #: own link-state row when nothing was measured in between.
        self.version = 0
        #: peers currently in the rapid-reprobe state (first loss seen),
        #: mapped to the pending follow-up probe event (for cancellation).
        self._rapid_pending: Dict[int, object] = {}
        self._timer = None
        self._measurement_noise = 0.03

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, phase: float = 0.0) -> None:
        """Begin periodic probing; the first round fires at ``phase``."""
        if self._timer is not None:
            raise ConfigError("monitor already started")
        self._timer = self._sim.periodic(PROBE_INTERVAL_S, self.probe_round, phase=phase)

    def stop(self) -> None:
        """Halt probing, including any pending rapid follow-up probes.

        A stopped monitor must go fully quiet: the in-flight rapid
        re-probe events would otherwise keep firing (and keep accounting
        probe bytes) after the node left the overlay.
        """
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        for event in self._rapid_pending.values():
            event.cancel()
        self._rapid_pending.clear()

    def reset(self) -> None:
        """Forget all measurement state (a node rejoining after downtime).

        The monitor must be stopped. Estimates return to their optimistic
        construction-time defaults: all links presumed alive, latencies
        unknown until the first probe round.
        """
        if self._timer is not None:
            raise ConfigError("reset on a running monitor")
        for event in self._rapid_pending.values():
            event.cancel()
        self._rapid_pending.clear()
        self.est_rtt_ms.fill(np.inf)
        self.est_rtt_ms[self.me] = 0.0
        self.alive.fill(True)
        self.consecutive_losses.fill(0)
        self.version += 1

    # ------------------------------------------------------------------
    # Queries (used by routers)
    # ------------------------------------------------------------------
    def is_up(self, j: int) -> bool:
        """The monitor's current liveness verdict for the link to ``j``."""
        return bool(self.alive[j])

    def latency_row(self) -> np.ndarray:
        """This node's link-state row: EWMA RTT, ``inf`` where down."""
        row = self.est_rtt_ms.copy()
        row[~self.alive] = np.inf
        row[self.me] = 0.0
        return row

    def alive_row(self) -> np.ndarray:
        return self.alive.copy()

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _peer_process_up(self) -> np.ndarray:
        """Which peers' overlay processes can answer a probe at all."""
        if self._transport is None:
            return np.ones(self.n, dtype=bool)
        return self._transport.registered_vector()

    def _probe_outcome_vector(self, up: np.ndarray) -> np.ndarray:
        """Sample which probe exchanges succeed this round, given which
        links are ``up``."""
        up = up & self._peer_process_up()
        loss = self._topology.loss_vector(self.me)
        # Request and reply must both survive.
        success_prob = (1.0 - loss) ** 2
        delivered = up & (self._rng.random(self.n) < success_prob)
        delivered[self.me] = True
        return delivered

    def _account_round(self, up: np.ndarray, delivered: np.ndarray, t: float) -> None:
        if self._bandwidth is None:
            return
        others = np.ones(self.n, dtype=bool)
        others[self.me] = False
        # Requests out from me to everyone.
        self._bandwidth.record_out(
            self.me, KIND_PROBE, wire.PROBE_BYTES * int(others.sum()), t
        )
        # Requests in + replies out at reachable peers (whose process
        # is still running; a dead node neither receives nor replies).
        reached = up & others & self._peer_process_up()
        self._bandwidth.record_in_many(reached, KIND_PROBE, wire.PROBE_BYTES, t)
        self._bandwidth.record_out_many(reached, KIND_PROBE, wire.PROBE_BYTES, t)
        # Replies that made it back to me.
        replies = int((delivered & others).sum())
        if replies:
            self._bandwidth.record_in(self.me, KIND_PROBE, wire.PROBE_BYTES * replies, t)

    def probe_round(self) -> None:
        """One full probing round over all ``n - 1`` peers."""
        t = self._sim.now
        up = self._topology.up_vector(self.me, t)
        delivered = self._probe_outcome_vector(up)
        self._account_round(up, delivered, t)

        rtt = self._topology.rtt_vector_ms(self.me)
        noise = self._rng.uniform(
            1.0 - self._measurement_noise, 1.0 + self._measurement_noise, self.n
        )
        sample = rtt * noise

        ok = delivered.copy()
        ok[self.me] = False

        # EWMA update where we have a fresh sample (first sample installs).
        fresh_first = ok & ~np.isfinite(self.est_rtt_ms)
        self.est_rtt_ms[fresh_first] = sample[fresh_first]
        steady = ok & ~fresh_first
        self.est_rtt_ms[steady] = (
            EWMA_ALPHA * sample[steady] + (1 - EWMA_ALPHA) * self.est_rtt_ms[steady]
        )

        came_back = ok & ~self.alive
        self.consecutive_losses[ok] = 0
        self.alive[ok] = True
        # All row-visible updates of this round are in; bump before the
        # transition callbacks so their refreshes see current state.
        self.version += 1
        for j in np.where(came_back)[0]:
            pending = self._rapid_pending.pop(int(j), None)
            if pending is not None:
                pending.cancel()
            if self.on_link_up is not None:
                self.on_link_up(int(j))

        lost = ~delivered
        lost[self.me] = False
        self.consecutive_losses[lost] += 1
        self._after_loss(np.where(lost)[0])

    def _after_loss(self, lost_indices: np.ndarray) -> None:
        """Handle consecutive-loss bookkeeping for the given peers."""
        for j_arr in lost_indices:
            j = int(j_arr)
            count = int(self.consecutive_losses[j])
            if count >= PROBES_TO_FAIL:
                pending = self._rapid_pending.pop(j, None)
                if pending is not None:
                    pending.cancel()
                if self.alive[j]:
                    self.alive[j] = False
                    self.version += 1
                    if self.on_link_down is not None:
                        self.on_link_down(j)
            elif self.alive[j] and j not in self._rapid_pending:
                # First loss on a live link: rapid re-probing (§5).
                self._rapid_pending[j] = self._sim.schedule(
                    RAPID_PROBE_INTERVAL_S, self._rapid_probe, j
                )

    def _rapid_probe(self, j: int) -> None:
        """One fast follow-up probe to a single suspect peer."""
        if j not in self._rapid_pending:
            return
        del self._rapid_pending[j]
        t = self._sim.now
        up = self._topology.link_is_up(self.me, j, t) and bool(
            self._peer_process_up()[j]
        )
        loss = self._topology.loss_probability(self.me, j)
        delivered = up and self._rng.random() < (1.0 - loss) ** 2

        if self._bandwidth is not None:
            self._bandwidth.record_out(self.me, KIND_PROBE, wire.PROBE_BYTES, t)
            if up:
                self._bandwidth.record_in(j, KIND_PROBE, wire.PROBE_BYTES, t)
                self._bandwidth.record_out(j, KIND_PROBE, wire.PROBE_BYTES, t)
            if delivered:
                self._bandwidth.record_in(self.me, KIND_PROBE, wire.PROBE_BYTES, t)

        if delivered:
            rtt = self._topology.rtt_ms(self.me, j) * float(
                self._rng.uniform(
                    1.0 - self._measurement_noise, 1.0 + self._measurement_noise
                )
            )
            if np.isfinite(self.est_rtt_ms[j]):
                self.est_rtt_ms[j] = EWMA_ALPHA * rtt + (1 - EWMA_ALPHA) * self.est_rtt_ms[j]
            else:
                self.est_rtt_ms[j] = rtt
            came_back = not self.alive[j]
            self.consecutive_losses[j] = 0
            self.alive[j] = True
            self.version += 1
            if came_back and self.on_link_up is not None:
                self.on_link_up(j)
            return

        self.consecutive_losses[j] += 1
        self._after_loss(np.array([j]))
