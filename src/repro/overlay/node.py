"""An overlay node: monitor + router glued together, lifecycle and dispatch."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, RoutingError
from repro.net.packet import LinkStateMessage, Message, RecommendationMessage
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.transport import DatagramTransport
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.linkstate import RowBlock
from repro.overlay.monitor import LinkMonitor
from repro.overlay.router_base import Route, RouterBase
from repro.overlay.router_fullmesh import FullMeshRouter
from repro.overlay.router_quorum import QuorumRouter
from repro.overlay.stats import BandwidthRecorder

if TYPE_CHECKING:
    from repro.overlay.gossip import GossipMembershipNode
    from repro.overlay.membership import MembershipClient, ViewUpdate

__all__ = ["OverlayNode"]


class OverlayNode:
    """One participant in the overlay.

    The node owns a link monitor and a router, registers itself with the
    transport, and dispatches incoming messages. Construction wires the
    monitor's liveness transitions into the router (the §4.1 immediate
    failover trigger).
    """

    __slots__ = (
        "id",
        "sim",
        "config",
        "monitor",
        "router",
        "transport",
        "_started",
        "_registered",
        "membership",
        "gossip",
        "_heartbeat_timer",
        "_pending_start",
        "_start_on_view",
    )

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        transport: DatagramTransport,
        topology: Topology,
        config: OverlayConfig,
        router_kind: RouterKind,
        rng: np.random.Generator,
        bandwidth: Optional[BandwidthRecorder] = None,
        router_cls: Optional[type] = None,
        row_block: Optional[RowBlock] = None,
    ):
        self.id = node_id
        self.sim = sim
        self.config = config
        self.monitor = LinkMonitor(
            me=node_id,
            sim=sim,
            topology=topology,
            rng=rng,
            bandwidth=bandwidth,
            on_link_down=self._link_down,
            on_link_up=self._link_up,
            transport=transport,
        )
        if router_cls is None:
            router_cls = (
                QuorumRouter if router_kind is RouterKind.QUORUM else FullMeshRouter
            )
        self.router: RouterBase = router_cls(
            me=node_id,
            sim=sim,
            transport=transport,
            monitor=self.monitor,
            config=config,
            row_block=row_block,
        )
        self.transport = transport
        self._started = False
        self._registered = True
        #: This node's membership client, set by the plane's ``attach``:
        #: everything about how views reach the node lives there.
        self.membership: Optional["MembershipClient"] = None
        #: The gossip plane's engine, or None on any other plane. Read
        #: by bench/tracing.py; the code uses :attr:`membership`.
        self.gossip: Optional["GossipMembershipNode"] = None
        self._heartbeat_timer = None
        self._pending_start = None
        #: (monitor, router) phases to start with as soon as a view
        #: containing this node is installed (a wire-delivered join's
        #: full view may be lost, so no fixed delay is safe).
        self._start_on_view: Optional[Tuple[float, float]] = None
        self.router.on_version_gap = self._on_router_version_gap
        transport.register(node_id, self.on_message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True while the node's probing/routing timers are running."""
        return self._started

    @property
    def registered(self) -> bool:
        """True while the node is bound to the transport (reachable)."""
        return self._registered

    @property
    def armed(self) -> bool:
        """True while the node waits for a view to start on."""
        return self._start_on_view is not None and not self._started

    def start(self, monitor_phase: float = 0.0, router_phase: float = 0.0) -> None:
        """Start probing and routing timers (phases stagger nodes)."""
        if self._started:
            raise ConfigError(f"node {self.id} already started")
        if self.router.view is None:
            raise ConfigError(f"node {self.id} has no membership view yet")
        self._started = True
        self.monitor.start(phase=monitor_phase)
        self.router.start(phase=router_phase)
        self.membership.on_node_start(monitor_phase, router_phase)

    def start_heartbeat(self, interval_s: float) -> None:
        """Call the membership client's ``heartbeat`` every ``interval_s``
        until the node stops (or, while armed, until it starts)."""
        self._heartbeat_timer = self.sim.periodic(
            interval_s, self._heartbeat, phase=interval_s
        )

    def _heartbeat(self) -> None:
        self.membership.heartbeat()

    def _stop_heartbeat(self) -> None:
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.stop()
            self._heartbeat_timer = None

    def schedule_start(
        self, delay: float, monitor_phase: float, router_phase: float
    ) -> None:
        """Start the node ``delay`` seconds from now (cancelled if the
        node is stopped or torn down before then)."""
        if self._pending_start is not None:
            raise ConfigError(f"node {self.id} already has a pending start")
        self._pending_start = self.sim.schedule(
            delay, self._deferred_start, monitor_phase, router_phase
        )

    def _deferred_start(self, monitor_phase: float, router_phase: float) -> None:
        self._pending_start = None
        self.start(monitor_phase, router_phase)

    def arm_start_on_view(
        self,
        monitor_phase: float,
        router_phase: float,
        acquire_interval_s: Optional[float] = None,
    ) -> None:
        """Start as soon as a view containing this node is installed.

        With ``acquire_interval_s`` the node heartbeats at that cadence
        while it waits: on a wire plane the heartbeat piggybacks "no
        view yet", which makes the coordinator re-push the full view.
        """
        if self._pending_start is not None or self._start_on_view is not None:
            raise ConfigError(f"node {self.id} already has a pending start")
        self._start_on_view = (monitor_phase, router_phase)
        if acquire_interval_s is not None:
            self.start_heartbeat(acquire_interval_s)

    def start_if_armed(self) -> None:
        """A view was installed: an armed node starts on it."""
        if not self.armed:
            return
        monitor_phase, router_phase = self._start_on_view
        self._start_on_view = None
        self._stop_heartbeat()
        self.start(monitor_phase, router_phase)

    def stop(self) -> None:
        if self._pending_start is not None:
            self._pending_start.cancel()
            self._pending_start = None
        self._start_on_view = None
        self._stop_heartbeat()
        self.membership.on_node_stop()
        if self._started:
            self.monitor.stop()
            self.router.stop()
            self._started = False

    def teardown(self) -> None:
        """Take the node off the network entirely (leave or crash).

        Stops every timer (probing, routing, rapid probes, heartbeat)
        and unbinds from the transport, so in-flight messages to this
        node are dropped and no further events reference it.
        """
        self.stop()
        if self._registered:
            self.transport.unregister(self.id)
            self._registered = False

    def prepare_join(self) -> None:
        """Re-arm a torn-down node so it can join the overlay (again).

        Re-binds the transport and resets the link monitor to its
        optimistic initial state; routing state is rebuilt when the
        first membership view arrives.
        """
        if self._started:
            raise ConfigError(f"node {self.id} is running; cannot rejoin")
        if not self._registered:
            self.transport.register(self.id, self.on_message)
            self._registered = True
        self.router.view_epoch = 0
        self.router.forget_view()
        self.monitor.reset()

    # ------------------------------------------------------------------
    # Message / event dispatch
    # ------------------------------------------------------------------
    def on_message(self, msg: Message, src: int) -> None:
        # The two routing messages are nearly all traffic: match them by
        # exact type (neither has a subclass).
        cls = type(msg)
        if cls is LinkStateMessage or cls is RecommendationMessage:
            router = self.router
            if router.view is None:
                # Rebooting: bound to the transport but no view yet, so
                # peers still routing on a view containing this node may
                # message it. Unusable until a view arrives — drop.
                router.dropped_stale_view += 1
            elif cls is LinkStateMessage:
                router.on_linkstate(msg, msg.origin)
            else:
                router.on_recommendation(msg, msg.origin)
        else:
            # Probes are handled by the vectorized monitor fast path, so
            # whatever is left is the membership plane's.
            self.membership.on_message(msg, src)

    def on_view(self, update: "ViewUpdate", epoch: int = 0) -> None:
        """A coordinator plane delivers a full view or a delta: the
        out-of-band subscriber callback, and where the wire clients hand
        decoded updates (bench/tracing.py patches this span)."""
        self.membership.on_view(update, epoch)

    def _on_router_version_gap(self) -> None:
        """The router saw a routing message from a newer view: we are
        behind (our update was lost); tell the plane without waiting for
        its next heartbeat or gossip round."""
        if self._started:
            self.membership.on_version_gap()

    def _link_down(self, j: int) -> None:
        self.router.on_link_down(j)

    def _link_up(self, j: int) -> None:
        self.router.on_link_up(j)

    # ------------------------------------------------------------------
    # Public routing API
    # ------------------------------------------------------------------
    def route_to(self, dst_id: int) -> Route:
        """Best currently-known route to node ``dst_id`` (by node ID)."""
        view = self.router.view
        if view is None:
            raise RoutingError(f"node {self.id} has no membership view")
        return self.router.route_to(view.index_of(dst_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OverlayNode id={self.id} router={self.router.kind.value}>"
