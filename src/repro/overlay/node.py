"""An overlay node: monitor + router + membership handling glued together."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, RoutingError
from repro.net.packet import (
    GossipDigest,
    GossipOps,
    GossipPull,
    GossipSnapshot,
    LinkStateMessage,
    MembershipAck,
    MembershipDelta,
    MembershipRefresh,
    MembershipUpdate,
    Message,
    RecommendationMessage,
    RelayEnvelope,
)
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.transport import DatagramTransport
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.membership import MembershipView, ViewDelta, ViewUpdate
from repro.overlay.monitor import LinkMonitor
from repro.overlay.router_base import Route, RouterBase
from repro.overlay.router_fullmesh import FullMeshRouter
from repro.overlay.router_quorum import QuorumRouter
from repro.overlay.stats import BandwidthRecorder

if TYPE_CHECKING:
    from repro.overlay.gossip import GossipMembershipNode

__all__ = ["OverlayNode", "backoff_delay"]


def backoff_delay(
    attempt: int,
    base_s: float,
    max_s: float,
    jitter: float,
    rng: Optional[np.random.Generator],
) -> float:
    """Jittered exponential backoff delay for (0-based) ``attempt``.

    ``base_s * 2**attempt`` capped at ``max_s``, stretched by a uniform
    factor in ``[1, 1 + jitter]`` so correlated failures do not make
    every retrier fire in lockstep. Shared by the coordinator ring walk
    and the gossip plane's anti-entropy pull retries.
    """
    delay = min(base_s * (2.0**attempt), max_s)
    if rng is not None and jitter > 0:
        delay *= 1.0 + jitter * float(rng.random())
    return delay


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
        "on_refresh",
        "membership_addr",
        "_refresh_timer",
        "_pending_start",
        "_start_on_view",
        "_acquire_timer",
        "_repair_requested_from",
        "dropped_unappliable_deltas",
        "dropped_stale_full_views",
        "held_epoch",
        "membership_ring",
        "_ring_idx",
        "_coord_heard_at",
        "_failover_timer",
        "_retry_event",
        "_retry_attempt",
        "_retry_sent_to",
        "_refresh_sent_at",
        "_failover_rng",
        "_ring_phases",
        "membership_failovers",
        "membership_retries",
        "gossip",
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
    ):
        self.id = node_id
        self.sim = sim
        self.config = config
        self.monitor = LinkMonitor(
            me=node_id,
            sim=sim,
            topology=topology,
            config=config,
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
        )
        self.transport = transport
        self._started = False
        self._registered = True
        #: Membership heartbeat hook; the harness points this at the
        #: membership service's ``refresh`` so live nodes never expire.
        #: Used by the out-of-band plane only.
        self.on_refresh: Optional[Callable[[], None]] = None
        #: In-band membership: the coordinator's transport address.
        #: When set, heartbeats are real MembershipRefresh datagrams
        #: piggybacking the held view version, and the node requests
        #: repair when it detects it missed a view update.
        self.membership_addr: Optional[int] = None
        self._refresh_timer = None
        self._pending_start = None
        #: Armed by the harness for in-band joins: (monitor, router)
        #: phases to start with as soon as a view containing this node
        #: arrives (the join's full view may be lost on the wire).
        self._start_on_view = None
        self._acquire_timer = None
        #: Held version a repair was already requested from (one nack
        #: per detected gap, re-armed when a view installs).
        self._repair_requested_from: Optional[int] = None
        #: Deltas whose base version did not match the held view (lost
        #: update upstream when in-band; the piggybacked refresh asks
        #: the coordinator for the bridging update).
        self.dropped_unappliable_deltas = 0
        #: Full views at or below the already-held version (repair
        #: resends racing regular publication); ignored, not re-installed.
        self.dropped_stale_full_views = 0
        #: Coordinator epoch of the held view (0 = legacy unreplicated
        #: coordinator). Views order by (epoch, version): a full view at
        #: a higher epoch supersedes the held one even if its version
        #: number is lower, and deltas only chain within one epoch.
        self.held_epoch = 0
        #: Replicated membership: the ring of coordinator addresses to
        #: fail over across (None = single coordinator, no failover).
        self.membership_ring: Optional[Tuple[int, ...]] = None
        self._ring_idx = 0
        #: Last proof of life from the current coordinator (refresh acks
        #: and view pushes both count).
        self._coord_heard_at = 0.0
        self._failover_timer = None
        self._retry_event = None
        self._retry_attempt = 0
        #: Address the last failover attempt was actually sent to; when
        #: a redirect repoints the node mid-backoff, the next retry
        #: contacts the new target instead of walking past it.
        self._retry_sent_to: Optional[int] = None
        #: When the last refresh went out. Coordinator silence only
        #: proves death if a heartbeat was actually sent since we last
        #: heard — the failover timeout may well be shorter than the
        #: heartbeat interval.
        self._refresh_sent_at = 0.0
        self._failover_rng: Optional[np.random.Generator] = None
        self._ring_phases: Optional[Tuple[float, float]] = None
        self.membership_failovers = 0
        self.membership_retries = 0
        #: Coordinator-free membership: the node's gossip engine
        #: (attached by the harness when ``membership_mode="gossip"``).
        #: When set, gossip wire messages dispatch to it and view
        #: installs come from :meth:`install_gossip_view` instead of the
        #: coordinator's pushes.
        self.gossip: Optional["GossipMembershipNode"] = None
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

    def start(self, monitor_phase: float = 0.0, router_phase: float = 0.0) -> None:
        """Start probing and routing timers (phases stagger nodes)."""
        if self._started:
            raise ConfigError(f"node {self.id} already started")
        if self.router.view is None:
            raise ConfigError(f"node {self.id} has no membership view yet")
        self._started = True
        self.monitor.start(phase=monitor_phase)
        self.router.start(phase=router_phase)
        if self.membership_addr is not None or self.on_refresh is not None:
            # Heartbeat well inside the membership timeout so a live
            # node is never expired (§5: timeouts are long; only truly
            # dead nodes go silent for a whole timeout). In-band, the
            # heartbeat is a wire message that doubles as the gap
            # detector: it piggybacks the held view version.
            refresh = (
                self.send_membership_refresh
                if self.membership_addr is not None
                else self.on_refresh
            )
            interval = self.config.membership_timeout_s / 3.0
            self._refresh_timer = self.sim.periodic(
                interval, refresh, phase=interval
            )
        if self.membership_ring is not None:
            self._ring_phases = (monitor_phase, router_phase)
            self._coord_heard_at = self.sim.now
            self._start_failover_watch()
        if self.gossip is not None:
            self.gossip.on_node_start()

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
        self, monitor_phase: float, router_phase: float, acquire_interval_s: float
    ) -> None:
        """In-band join: start as soon as a view containing this node
        arrives; until then, periodically ask the coordinator for it.

        With wire delivery the join's initial full view may be lost, so
        a fixed start delay could fire with no view at all. Instead the
        start is view-triggered, and an acquisition timer re-sends
        refreshes (piggybacking version 0) that make the coordinator
        re-push the full view.
        """
        if self._pending_start is not None or self._start_on_view is not None:
            raise ConfigError(f"node {self.id} already has a pending start")
        if self.membership_addr is None and self.gossip is None:
            raise ConfigError(f"node {self.id} has no membership address")
        self._start_on_view = (monitor_phase, router_phase)
        if self.membership_addr is not None:
            self._acquire_timer = self.sim.periodic(
                acquire_interval_s,
                self.send_membership_refresh,
                phase=acquire_interval_s,
            )
        if self.membership_ring is not None:
            # The coordinator this joiner is pointed at may be dead (its
            # join could even be the one lost in the coordinator's
            # crash); run the failover watch while armed so the acquire
            # refreshes walk the ring instead of nagging a corpse.
            self._coord_heard_at = self.sim.now
            self._start_failover_watch()

    def _maybe_start_on_view(self) -> None:
        if self._start_on_view is None or self._started:
            return
        monitor_phase, router_phase = self._start_on_view
        self._start_on_view = None
        if self._acquire_timer is not None:
            self._acquire_timer.stop()
            self._acquire_timer = None
        self.start(monitor_phase, router_phase)

    def _cancel_pending_start(self) -> None:
        if self._pending_start is not None:
            self._pending_start.cancel()
            self._pending_start = None
        self._start_on_view = None
        if self._acquire_timer is not None:
            self._acquire_timer.stop()
            self._acquire_timer = None

    def stop(self) -> None:
        self._cancel_pending_start()
        self._stop_failover_watch()
        if self.gossip is not None:
            self.gossip.on_node_stop()
        if self._started:
            self.monitor.stop()
            self.router.stop()
            if self._refresh_timer is not None:
                self._refresh_timer.stop()
                self._refresh_timer = None
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
        self._repair_requested_from = None
        self.held_epoch = 0
        self.router.view_epoch = 0
        self._retry_attempt = 0
        self.router.forget_view()
        self.monitor.reset()

    # ------------------------------------------------------------------
    # Message / event dispatch
    # ------------------------------------------------------------------
    def on_message(self, msg: Message, src: int) -> None:
        # The two routing messages are nearly all traffic: match them by
        # exact type (neither has a subclass) ahead of the isinstance
        # chain. They are attributed to their *origin*, which for a
        # relayed message differs from the transport-level sender.
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
        elif isinstance(msg, RelayEnvelope):
            # §4.1 footnote 8: act as the temporary one-hop — unwrap and
            # forward toward the real target.
            if msg.target != self.id and msg.inner is not None:
                self.transport.send(self.id, msg.target, msg.inner)
            elif msg.inner is not None:
                self.on_message(msg.inner, msg.inner.origin)
        elif isinstance(msg, MembershipUpdate):
            self._note_coordinator(src, msg.epoch)
            self.on_view(
                MembershipView(version=msg.version, members=msg.members),
                epoch=msg.epoch,
            )
        elif isinstance(msg, MembershipDelta):
            self._note_coordinator(src, msg.epoch)
            self.on_view(
                ViewDelta(
                    from_version=msg.from_version,
                    to_version=msg.to_version,
                    joined=msg.joined,
                    left=msg.left,
                ),
                epoch=msg.epoch,
            )
        elif isinstance(msg, MembershipAck):
            self._on_membership_ack(msg, src)
        elif isinstance(msg, (GossipDigest, GossipPull, GossipOps, GossipSnapshot)):
            if self.gossip is not None:
                self.gossip.on_message(msg, src)
        # Probes are handled by the vectorized monitor fast path.

    def on_view(self, update: ViewUpdate, epoch: int = 0) -> None:
        """Membership delivery: install a full view or apply a delta.

        A view that no longer contains this node means it was removed
        (leave or expiry); the node stops participating. A torn-down
        (crashed) node ignores pushes — it is off the network. Deltas
        chain off the currently held view; the quorum router applies
        them incrementally (grid resize + state remap) instead of
        rebuilding from scratch. In-band, an unappliable delta means an
        earlier update was lost on the wire: the node immediately sends
        a refresh whose version piggyback makes the coordinator re-send
        the bridging update.

        With replicated coordinators, views order by ``(epoch,
        version)``: a full view at a higher epoch installs even when its
        version number is lower (the promoted primary's numbering
        continues the mirrored log, which may trail what a deposed
        primary published), a lower epoch is always stale, and deltas
        only apply within the held epoch. A view excluding this node is
        not necessarily final either — expulsion may be the mistake of
        an expired-during-outage removal, so a ring-configured node
        keeps heartbeating and rejoins when the coordinator readmits it.
        """
        if not self._registered:
            return
        current = self.router.view
        if isinstance(update, ViewDelta):
            if (
                current is None
                or epoch != self.held_epoch
                or current.version != update.from_version
            ):
                self.dropped_unappliable_deltas += 1
                self._request_view_repair()
                return
            view = update.apply(current)
            if self.id not in view:
                self._on_expelled()
                return
            self.router.on_view_delta(view, update)
            self._repair_requested_from = None
            self._maybe_start_on_view()
            return
        if epoch < self.held_epoch:
            # A deposed primary's stale publication; the fencing rule
            # guarantees the higher epoch is the surviving authority.
            self.dropped_stale_full_views += 1
            return
        if (
            current is not None
            and epoch == self.held_epoch
            and update.version <= current.version
        ):
            # A repair resend that raced regular publication; the held
            # view is already at least this fresh — do not rebuild.
            self.dropped_stale_full_views += 1
            return
        if self.id not in update:
            if self._start_on_view is not None and not self._started:
                # A pre-rejoin expulsion still in flight (the previous
                # incarnation's "you are out"); the join's view — which
                # contains this node — is right behind it. Stopping here
                # would cancel the armed start and strand the node.
                self.dropped_stale_full_views += 1
                return
            self._on_expelled()
            return
        self.held_epoch = epoch
        self.router.view_epoch = epoch
        self.router.on_view_change(update)
        self._repair_requested_from = None
        self._maybe_start_on_view()

    def install_gossip_view(self, members: Sequence[int], version: int) -> bool:
        """Install a locally-resolved gossip membership view.

        The gossip engine calls this after its version vector advances.
        ``version`` is the engine's packed view version — identical
        across nodes holding identical op knowledge, strictly increasing
        locally — so the routers' version-equality drop rule keeps
        working with epoch 0. Members identical to the held view get a
        version-only rebrand (no grid rebuild); otherwise a synthesized
        delta drives the incremental resize path. Returns True when a
        view was installed.
        """
        if not self._registered:
            return False
        member_tuple = tuple(members)
        if self.id not in member_tuple:
            return False  # the engine refutes before re-installing
        current = self.router.view
        if current is not None and version <= current.version:
            return False
        view = MembershipView(version=version, members=member_tuple)
        if current is None:
            self.router.on_view_change(view)
        elif current.members == member_tuple:
            self.router.rebrand_view(view)
        else:
            current_set = set(current.members)
            member_set = set(member_tuple)
            delta = ViewDelta(
                from_version=current.version,
                to_version=version,
                joined=tuple(sorted(member_set - current_set)),
                left=tuple(sorted(current_set - member_set)),
            )
            self.router.on_view_delta(view, delta)
        self._maybe_start_on_view()
        return True

    def _on_expelled(self) -> None:
        """Handle a view that no longer contains this node.

        Single-coordinator overlays keep the legacy semantic: the
        authority said we are out, stop for good. With a coordinator
        ring, a live node can be expelled *wrongly* (expiry while the
        membership plane was down or partitioned), so it stops routing
        but re-arms the view-triggered start and keeps heartbeating —
        the acting primary readmits any live non-member that reaches
        it, and the readmission view restarts the node.
        """
        self.stop()
        if self.membership_ring is None or self._ring_phases is None:
            return
        monitor_phase, router_phase = self._ring_phases
        self.membership_failovers += 1
        self.arm_start_on_view(
            monitor_phase,
            router_phase,
            acquire_interval_s=self.config.membership_failover_timeout_s / 2.0,
        )

    # ------------------------------------------------------------------
    # In-band membership client
    # ------------------------------------------------------------------
    def configure_ring(
        self, addresses: Tuple[int, ...], rng: np.random.Generator
    ) -> None:
        """Enable coordinator failover across ``addresses``.

        The node heartbeats ``addresses[0]`` (the initial primary) and,
        when the current coordinator goes silent past the failover
        timeout, walks the ring with exponential backoff + jitter
        (``rng`` supplies the jitter) until an acknowledgement or view
        push proves a coordinator live again.
        """
        if not addresses:
            raise ConfigError("coordinator ring must not be empty")
        self.membership_ring = addresses
        self.membership_addr = addresses[0]
        self._ring_idx = 0
        self._failover_rng = rng

    def send_membership_refresh(self) -> None:
        """Heartbeat the in-band coordinator, piggybacking the held view
        version (0 = no view yet) so it can detect and repair gaps."""
        if self.membership_addr is None:
            return
        self._refresh_sent_at = self.sim.now
        held = self.router.view
        self.transport.send(
            self.id,
            self.membership_addr,
            MembershipRefresh(
                origin=self.id,
                view_version=held.version if held is not None else 0,
                epoch=self.held_epoch if held is not None else 0,
            ),
        )

    def _request_view_repair(self) -> None:
        if self.membership_addr is None:
            return
        held = self.router.view.version if self.router.view is not None else 0
        if self._repair_requested_from == held:
            return  # one repair request per detected gap
        self._repair_requested_from = held
        self.send_membership_refresh()

    def _on_router_version_gap(self) -> None:
        """The router saw a routing message from a newer view: we are
        behind (our update was lost); ask for repair without waiting for
        the next heartbeat (coordinator plane) or gossip round."""
        if not self._started:
            return
        if self.gossip is not None:
            self.gossip.nudge()
            return
        self._request_view_repair()

    # ------------------------------------------------------------------
    # Coordinator failover client
    # ------------------------------------------------------------------
    def _note_coordinator(self, src: int, epoch: int) -> None:
        """A view push arrived from a coordinator: proof of life.

        A push at the held epoch or newer also identifies the acting
        primary, so the node repoints its heartbeats there without
        waiting for a redirect.
        """
        if self.membership_ring is None or src not in self.membership_ring:
            return
        if epoch < self.held_epoch:
            return  # a deposed primary is not proof the plane is live
        self._coord_heard_at = self.sim.now
        self._repoint(src)
        self._settle_retries()

    def _on_membership_ack(self, msg: MembershipAck, src: int) -> None:
        if self.membership_ring is None or src not in self.membership_ring:
            return
        if msg.leader == src:
            # The acting primary acknowledged our refresh.
            self._coord_heard_at = self.sim.now
            self._repoint(src)
            self._settle_retries()
            return
        # A backup's redirect: repoint to its believed leader but do not
        # count it as proof of life and do not re-send immediately —
        # the heartbeat/retry cadence drives the next contact, which
        # keeps two disagreeing backups from bouncing a message storm.
        if msg.leader in self.membership_ring:
            self._repoint(msg.leader)

    def _repoint(self, address: int) -> None:
        if address != self.membership_addr:
            assert self.membership_ring is not None
            self.membership_addr = address
            self._ring_idx = self.membership_ring.index(address)

    def _settle_retries(self) -> None:
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        self._retry_attempt = 0
        self._retry_sent_to = None

    def _start_failover_watch(self) -> None:
        if self.membership_ring is None or self._failover_timer is not None:
            return
        interval = self.config.membership_failover_timeout_s / 2.0
        rng = self._failover_rng
        phase = interval * (1.0 + float(rng.random())) if rng is not None else interval
        self._failover_timer = self.sim.periodic(
            interval, self._failover_tick, phase=phase
        )

    def _stop_failover_watch(self) -> None:
        if self._failover_timer is not None:
            self._failover_timer.stop()
            self._failover_timer = None
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None

    def _failover_tick(self) -> None:
        if self.membership_ring is None or not self._registered:
            return
        if self._retry_event is not None:
            return  # a failover is already in progress
        silence = self.sim.now - self._coord_heard_at
        if silence <= self.config.membership_failover_timeout_s:
            return
        if self._refresh_sent_at <= self._coord_heard_at:
            # Nothing has been sent since we last heard, so the silence
            # proves nothing (the heartbeat cadence may be slower than
            # the failover timeout). Probe now; the ack — or its
            # continued absence — decides at the next tick.
            self.send_membership_refresh()
            return
        self.membership_failovers += 1
        self._retry_attempt = 0
        # First attempt re-targets the *current* address — it may be a
        # redirect target we have not actually contacted yet; only
        # subsequent retries advance around the ring.
        self._retry_sent_to = self.membership_addr
        self.send_membership_refresh()
        self._schedule_retry()

    def _schedule_retry(self) -> None:
        cfg = self.config
        delay = backoff_delay(
            self._retry_attempt,
            cfg.membership_retry_base_s,
            cfg.membership_retry_max_s,
            cfg.membership_retry_jitter,
            self._failover_rng,
        )
        self._retry_event = self.sim.schedule(delay, self._retry_tick)

    def _retry_tick(self) -> None:
        self._retry_event = None
        if (
            self.sim.now - self._coord_heard_at
            <= self.config.membership_failover_timeout_s
        ):
            self._retry_attempt = 0
            return  # the coordinator answered while we were waiting
        assert self.membership_ring is not None
        if self._retry_sent_to == self.membership_addr:
            # Nothing repointed us since the last attempt: walk the ring.
            # (After a redirect the current address has not been tried
            # yet — advancing would skip the believed leader, and with
            # an unlucky ring layout could orbit it forever.)
            self._ring_idx = (self._ring_idx + 1) % len(self.membership_ring)
            self.membership_addr = self.membership_ring[self._ring_idx]
        self.membership_retries += 1
        self._retry_attempt += 1
        self._retry_sent_to = self.membership_addr
        self.send_membership_refresh()
        self._schedule_retry()

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
