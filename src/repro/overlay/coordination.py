"""Replicated membership coordination (coordinator failover).

The paper's membership service is deliberately a single coordinator
(§5): long timeouts make it non-critical for routing, but one crash
still means no view ever changes again. This module replicates the view
log across ``k`` coordinator endpoints so the membership plane survives
coordinator crashes and partitions — without upgrading it to a consensus
protocol, which the paper explicitly avoids.

Design
------

* One :class:`Coordinator` per endpoint, addressable at ``n + i`` on the
  shared datagram transport, co-located at a spread of host nodes. At
  any instant a coordinator is a *primary* (runs a real
  :class:`~repro.overlay.membership.MembershipService` and publishes
  views exactly as the unreplicated coordinator does), a *backup*
  (mirrors the primary's view log from
  :class:`~repro.net.packet.CoordinatorReplicate` messages), or *down*
  (crashed; its endpoint is unregistered).
* **Epoch rule.** Every promotion bumps an *epoch*; views order by
  ``(epoch, version)`` lexicographically, deltas only chain within one
  epoch, and crossing epochs always ships a full view. Between two
  concurrent claimants the higher epoch wins; on an epoch tie the lower
  address wins. A primary that hears a better claim *fences* itself
  (demotes to backup and pulls the winner's state), so conflicting
  concurrent views — the split-brain a partition can force — converge
  as soon as the partition heals: one claimant fences, and the survivor's
  full-view republication at its epoch supersedes every stale view held
  anywhere. Epoch 0 is reserved for the unreplicated legacy coordinator
  and costs nothing on the wire.
* **Failure detection.** The primary heartbeats every backup; a backup
  that hears nothing for ``PROMOTE_TIMEOUT_S * rank`` promotes itself,
  where ``rank`` is its ring distance from the believed primary — the
  stagger makes the first live replica win without an election.
* **Member failover** lives in :class:`RingClient`, each node's
  membership client on this plane: members heartbeat the primary, treat
  refresh acks and view pushes as proof of life, and walk the
  coordinator ring with exponential backoff + jitter when it goes silent.

The group never loses a member permanently: a promoted primary adopts
the mirrored view with an expiry grace window, and any member wrongly
expelled (by expiry during an outage or by a deposed primary's
conflicting view) is readmitted the moment one of its refreshes reaches
the acting primary.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MembershipError
from repro.net.packet import (
    CoordinatorHeartbeat,
    CoordinatorPull,
    CoordinatorReplicate,
    MembershipAck,
    MembershipDelta,
    MembershipRefresh,
    MembershipUpdate,
    Message,
)
from repro.net.simulator import Simulator
from repro.net.transport import DatagramTransport
from repro.overlay.config import Replicated, RetryBackoff
from repro.overlay.membership import (
    MembershipService,
    MembershipView,
    ViewCallback,
    ViewDelta,
    WireClient,
    readmit,
)
from repro.overlay.stats import CounterSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.node import OverlayNode

__all__ = ["Coordinator", "CoordinatorGroup", "RingClient", "coordinator_hosts"]

# The ring and replica timings, compressed from the paper's hour-scale
# membership timeout so that detection, promotion, expiry pressure and
# recovery all happen within a sub-hour simulated run.

#: A member that has heard nothing from its coordinator (view pushes or
#: refresh acks) for this long fails over to the next address in the
#: ring, retrying with :data:`RING_RETRY`.
FAILOVER_TIMEOUT_S = 20.0
#: Backoff of the ring walk: 2 s doubling to 16 s, jittered.
RING_RETRY = RetryBackoff(base_s=2.0, max_s=16.0)
#: Primary-to-replica heartbeat period.
HEARTBEAT_S = 5.0
#: A replica that heard nothing from the primary for ``rank * this``
#: promotes itself (rank = its ring distance after the primary, so the
#: first live replica wins without an election).
PROMOTE_TIMEOUT_S = 25.0

ROLE_PRIMARY = "primary"
ROLE_BACKUP = "backup"
ROLE_DOWN = "down"


def claim_beats(epoch_a: int, addr_a: int, epoch_b: int, addr_b: int) -> bool:
    """Whether claimant A's ``(epoch, address)`` fences claimant B's.

    Higher epoch wins; on a tie the lower address wins (a total order,
    so any two concurrent primaries agree on who must fence).
    """
    if epoch_a != epoch_b:
        return epoch_a > epoch_b
    return addr_a < addr_b


class Coordinator:
    """One replicated-membership endpoint (primary, backup, or down)."""

    __slots__ = (
        "_sim",
        "_transport",
        "index",
        "address",
        "host",
        "addresses",
        "role",
        "service",
        "_service_factory",
        "_m_epoch",
        "_m_view",
        "_m_log",
        "primary_addr",
        "_primary_heard_at",
        "_heartbeat_timer",
        "_watch_timer",
        "stats",
        "_group",
    )

    def __init__(
        self,
        sim: Simulator,
        transport: DatagramTransport,
        index: int,
        address: int,
        host: int,
        addresses: Tuple[int, ...],
        service_factory: Callable[[], MembershipService],
        stats: CounterSet,
    ):
        self._sim = sim
        self._transport = transport
        self.index = index
        self.address = address
        self.host = host
        self.addresses = addresses
        self.role = ROLE_BACKUP
        self.service: Optional[MembershipService] = None
        self._service_factory = service_factory
        #: Mirrored (replica) state: the log head this coordinator could
        #: promote from. Maintained while backup; seeded from the live
        #: service on demotion/crash.
        self._m_epoch = 0
        self._m_view = MembershipView(version=0, members=())
        self._m_log: List[ViewDelta] = []
        self.primary_addr = addresses[0]
        self._primary_heard_at = sim.now
        self.stats = stats
        self._group: Optional["CoordinatorGroup"] = None
        transport.register_endpoint(address, host, self.handle_message)
        # Both timers run for the coordinator's whole life and gate on
        # role inside the callback — promotion/demotion/restore never
        # has to re-plumb timer state. Phases are staggered by index so
        # coordinators never share a tick.
        period = PROMOTE_TIMEOUT_S / 4.0
        self._watch_timer = self._sim.periodic(
            period, self._watch_tick, phase=period * (1.0 + index / len(addresses))
        )
        self._heartbeat_timer = self._sim.periodic(
            HEARTBEAT_S,
            self._heartbeat_tick,
            phase=HEARTBEAT_S * (1.0 + index / len(addresses)),
        )

    # ------------------------------------------------------------------
    # Claim / mirror helpers
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The epoch this coordinator would publish or promote from."""
        if self.service is not None:
            return self.service.epoch
        return self._m_epoch

    @property
    def held_view(self) -> MembershipView:
        """The newest view this coordinator knows (live or mirrored)."""
        if self.service is not None:
            return self.service.view
        return self._m_view

    def _rank(self) -> int:
        """Ring distance behind the believed primary (promotion stagger)."""
        k = len(self.addresses)
        try:
            leader_index = self.addresses.index(self.primary_addr)
        except ValueError:  # pragma: no cover - addresses are closed set
            leader_index = 0
        rank = (self.index - leader_index) % k
        return rank if rank > 0 else k

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, msg: Message, src: int) -> None:
        """Transport delivery handler for this coordinator's endpoint."""
        if self.role == ROLE_DOWN:  # pragma: no cover - unregistered
            return
        if isinstance(msg, (CoordinatorHeartbeat, CoordinatorReplicate)):
            if self.role == ROLE_PRIMARY:
                assert self.service is not None
                if claim_beats(msg.epoch, src, self.service.epoch, self.address):
                    # Fencing: a better claimant exists; stop publishing
                    # and mirror it instead.
                    self._demote(src)
                else:
                    # Tell the stale claimant about our claim so *it*
                    # fences itself (it may not have us in its belief).
                    self._send_heartbeat_to(src)
                    return
            self._backup_sync(msg, src)
            return
        if isinstance(msg, MembershipRefresh):
            self._on_refresh(msg, src)
            return
        if isinstance(msg, CoordinatorPull):
            if self.role == ROLE_PRIMARY:
                self.stats.incr("coordinator_pulls_served")
                self._send_snapshot(src)
            return

    def _on_refresh(self, msg: MembershipRefresh, src: int) -> None:
        member = msg.origin
        if self.role == ROLE_PRIMARY:
            assert self.service is not None
            self.service.handle_refresh(member, msg.view_version, msg.epoch)
            self._transport.send(
                self.address,
                member,
                MembershipAck(
                    origin=self.address,
                    epoch=self.service.epoch,
                    version=self.service.view.version,
                    leader=self.address,
                ),
            )
            return
        # Backup: redirect the member to the believed primary.
        self.stats.incr("refresh_redirects")
        self._transport.send(
            self.address,
            member,
            MembershipAck(
                origin=self.address,
                epoch=self._m_epoch,
                version=self._m_view.version,
                leader=self.primary_addr,
            ),
        )

    def _backup_sync(self, msg: Message, src: int) -> None:
        """Mirror-state maintenance from a claimant's heartbeat/replicate."""
        assert isinstance(msg, (CoordinatorHeartbeat, CoordinatorReplicate))
        beats = claim_beats(msg.epoch, src, self._m_epoch, self.primary_addr)
        from_leader = msg.epoch == self._m_epoch and src == self.primary_addr
        if not beats and not from_leader:
            return  # a stale (about-to-fence) claimant; ignore
        if beats:
            self.primary_addr = src
        self._primary_heard_at = self._sim.now
        if isinstance(msg, CoordinatorReplicate):
            if msg.is_delta:
                if (
                    msg.epoch == self._m_epoch
                    and msg.from_version == self._m_view.version
                ):
                    delta = ViewDelta(
                        from_version=msg.from_version,
                        to_version=msg.version,
                        joined=msg.joined,
                        left=msg.left,
                    )
                    self._m_view = delta.apply(self._m_view)
                    self._m_log.append(delta)
                else:
                    # Lost replication or epoch crossing: resync fully.
                    self._pull_from(src)
            else:
                self._m_epoch = msg.epoch
                self._m_view = MembershipView(
                    version=msg.version, members=msg.members
                )
                self._m_log.clear()
            return
        # Heartbeat: detect a mirror that fell behind the advertised head.
        if msg.epoch > self._m_epoch or (
            msg.epoch == self._m_epoch and msg.version > self._m_view.version
        ):
            self._pull_from(src)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _watch_tick(self) -> None:
        if self.role != ROLE_BACKUP:
            return
        silence = self._sim.now - self._primary_heard_at
        if silence > PROMOTE_TIMEOUT_S * self._rank():
            self._promote()

    def _heartbeat_tick(self) -> None:
        if self.role != ROLE_PRIMARY:
            return
        for addr in self.addresses:
            if addr != self.address:
                self._send_heartbeat_to(addr)

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------
    def become_primary(self) -> MembershipService:
        """Start a live service one epoch above the mirror, continuing
        the mirrored log."""
        service = self._service_factory()
        service.adopt(self._m_view, tuple(self._m_log), self._m_epoch + 1)
        service.attach_transport(
            self._transport, self.address, self.host, register=False
        )
        service.on_publish = self._replicate_delta
        self.service = service
        self.role = ROLE_PRIMARY
        self.primary_addr = self.address
        return service

    def _promote(self) -> None:
        """Take over from a silent primary and announce the new epoch."""
        service = self.become_primary()
        self.stats.incr("promotions")
        if self._group is not None:
            self._group._on_promoted(self)
        # Announce the epoch: snapshot the log head to every sibling and
        # republish the full view to every member — the new epoch
        # supersedes anything the dead/deposed primary published.
        for addr in self.addresses:
            if addr != self.address:
                self._send_snapshot(addr)
        service.republish()

    def _demote(self, leader_addr: int) -> None:
        """Fence: stop being primary and mirror ``leader_addr`` instead."""
        assert self.service is not None
        self._retire_service()
        self.role = ROLE_BACKUP
        self.primary_addr = leader_addr
        self._primary_heard_at = self._sim.now
        self.stats.incr("demotions")
        self._pull_from(leader_addr)

    def _retire_service(self) -> None:
        """Fold the live service into the mirror and the group stats."""
        assert self.service is not None
        for name, value in self.service.stats.as_dict().items():
            self.stats.incr(name, value)
        self.service.deactivate()
        self._m_epoch = self.service.epoch
        self._m_view = self.service.view
        self._m_log = list(self.service.delta_log)
        self.service = None

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop: endpoint down, buffered view changes lost.

        The role guard keeps the (still-ticking) timers inert while
        down; :meth:`restore` re-arms behavior by flipping the role.
        """
        if self.role == ROLE_DOWN:
            raise MembershipError(f"coordinator {self.index} is already down")
        self._transport.unregister(self.address)
        if self.service is not None:
            # deactivate() inside drops any open batching window — the
            # crash-mid-batch fault the scenario suite injects.
            self._retire_service()
        self.role = ROLE_DOWN
        self.stats.incr("coordinator_crashes")

    def restore(self) -> None:
        """Restart after a crash, as a backup resyncing from the ring."""
        if self.role != ROLE_DOWN:
            raise MembershipError(f"coordinator {self.index} is not down")
        self._transport.register(self.address, self.handle_message)
        self.role = ROLE_BACKUP
        if self.primary_addr == self.address:
            # We were primary when we crashed; assume our successor won.
            self.primary_addr = self.addresses[
                (self.index + 1) % len(self.addresses)
            ]
        self._primary_heard_at = self._sim.now
        self.stats.incr("coordinator_restores")
        self._pull_from(self.primary_addr)

    def quiesce(self) -> None:
        """Stop this coordinator's timers (end of run)."""
        self._watch_timer.stop()
        self._heartbeat_timer.stop()
        if self.service is not None:
            self.service.quiesce()

    # ------------------------------------------------------------------
    # Sends
    # ------------------------------------------------------------------
    def _send_heartbeat_to(self, dst: int) -> None:
        self._transport.send(
            self.address,
            dst,
            CoordinatorHeartbeat(
                origin=self.address,
                epoch=self.epoch,
                version=self.held_view.version,
            ),
        )

    def _send_snapshot(self, dst: int) -> None:
        assert self.service is not None
        view = self.service.view
        self._transport.send(
            self.address,
            dst,
            CoordinatorReplicate(
                origin=self.address,
                epoch=self.service.epoch,
                version=view.version,
                members=view.members,
            ),
        )

    def _replicate_delta(self, delta: ViewDelta) -> None:
        assert self.service is not None
        for addr in self.addresses:
            if addr == self.address:
                continue
            self._transport.send(
                self.address,
                addr,
                CoordinatorReplicate(
                    origin=self.address,
                    epoch=self.service.epoch,
                    version=delta.to_version,
                    from_version=delta.from_version,
                    joined=delta.joined,
                    left=delta.left,
                ),
            )

    def _pull_from(self, dst: int) -> None:
        self.stats.incr("coordinator_pulls")
        self._transport.send(
            self.address,
            dst,
            CoordinatorPull(
                origin=self.address,
                epoch=self._m_epoch,
                version=self._m_view.version,
            ),
        )

class RingClient(WireClient):
    """A node's client on the replicated plane: a :class:`WireClient`
    that heartbeats whichever coordinator it believes is primary and,
    when that one goes silent past :data:`FAILOVER_TIMEOUT_S`, walks the
    ring of ``addresses`` with jittered backoff (``rng`` supplies the
    jitter) until an acknowledgement or view push proves one live."""

    __slots__ = (
        "_ring",
        "_rng",
        "_heard_at",
        "_refresh_sent_at",
        "_watch_timer",
        "_retry_event",
        "_retry_attempt",
        "_retry_sent_to",
        "_phases",
        "failovers",
        "retries",
    )

    def __init__(
        self,
        node: "OverlayNode",
        addresses: Tuple[int, ...],
        rng: np.random.Generator,
    ):
        super().__init__(node, addresses[0])
        self._ring = addresses
        self._rng = rng
        #: Last proof of life from the current coordinator (refresh acks
        #: and view pushes both count).
        self._heard_at = 0.0
        #: When the last refresh went out. Coordinator silence only
        #: proves death if a heartbeat was actually sent since we last
        #: heard — the failover timeout may well be shorter than the
        #: heartbeat interval.
        self._refresh_sent_at = 0.0
        self._watch_timer = None
        self._retry_event = None
        self._retry_attempt = 0
        #: Address the last failover attempt was actually sent to; when
        #: a redirect repoints the node mid-backoff, the next retry
        #: contacts the new target instead of walking past it.
        self._retry_sent_to: Optional[int] = None
        #: Timer phases of the node's last start, reused on readmission.
        self._phases: Optional[Tuple[float, float]] = None
        self.failovers = 0
        self.retries = 0

    # -- lifecycle ------------------------------------------------------
    def on_node_start(self, monitor_phase: float, router_phase: float) -> None:
        super().on_node_start(monitor_phase, router_phase)
        self._phases = (monitor_phase, router_phase)
        self.watch()

    def on_node_stop(self) -> None:
        if self._watch_timer is not None:
            self._watch_timer.stop()
            self._watch_timer = None
        self._cancel_retry()

    def _cancel_retry(self) -> None:
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None

    def reset(self) -> None:
        super().reset()
        self._retry_attempt = 0

    def watch(self) -> None:
        """Run the failover watch (idempotent). Also armed while a
        joiner waits for its view: the coordinator it is pointed at may
        be dead (its join could even be the one lost in that crash), and
        the acquire refreshes must walk the ring, not nag a corpse."""
        self._heard_at = self.node.sim.now
        if self._watch_timer is not None:
            return
        interval = FAILOVER_TIMEOUT_S / 2.0
        self._watch_timer = self.node.sim.periodic(
            interval,
            self._watch_tick,
            phase=interval * (1.0 + float(self._rng.random())),
        )

    def on_expelled(self) -> None:
        """A live node can be expelled *wrongly* here (expiry while the
        plane was down or partitioned), so it stops routing but re-arms
        the view-triggered start and keeps heartbeating: the acting
        primary readmits any live non-member that reaches it, and the
        readmission view restarts the node."""
        self.node.stop()
        if self._phases is None:
            return
        self.failovers += 1
        self.node.arm_start_on_view(*self._phases, FAILOVER_TIMEOUT_S / 2.0)
        self.watch()

    # -- proof of life --------------------------------------------------
    def heartbeat(self) -> None:
        self._refresh_sent_at = self.node.sim.now
        super().heartbeat()

    def on_message(self, msg: Message, src: int) -> None:
        if isinstance(msg, MembershipAck):
            self._on_ack(msg, src)
            return
        if isinstance(msg, (MembershipUpdate, MembershipDelta)):
            # A view push at the held epoch or newer is proof of life
            # and identifies the acting primary (a deposed one proves
            # nothing).
            if src in self._ring and msg.epoch >= self.node.router.view_epoch:
                self._heard_from(src)
            super().on_message(msg, src)

    def _on_ack(self, msg: MembershipAck, src: int) -> None:
        if src not in self._ring:
            return
        if msg.leader == src:
            self._heard_from(src)  # the acting primary acknowledged us
        elif msg.leader in self._ring:
            # A backup's redirect: repoint to its believed leader but do
            # not count it as proof of life and do not re-send now — the
            # heartbeat/retry cadence drives the next contact, which
            # keeps two disagreeing backups from bouncing a message storm.
            self.address = msg.leader

    def _heard_from(self, address: int) -> None:
        self._heard_at = self.node.sim.now
        self.address = address
        self._cancel_retry()
        self._retry_attempt = 0
        self._retry_sent_to = None

    # -- the ring walk --------------------------------------------------
    def _silent(self) -> bool:
        return self.node.sim.now - self._heard_at > FAILOVER_TIMEOUT_S

    def _watch_tick(self) -> None:
        if not self.node.registered or self._retry_event is not None:
            return  # off the network, or a failover is already in progress
        if not self._silent():
            return
        if self._refresh_sent_at <= self._heard_at:
            # Nothing has been sent since we last heard, so the silence
            # proves nothing (the heartbeat cadence may be slower than
            # the failover timeout). Probe now; the ack — or its
            # continued absence — decides at the next tick.
            self.heartbeat()
            return
        self.failovers += 1
        self._retry_attempt = 0
        # First attempt re-targets the *current* address — it may be a
        # redirect target we have not actually contacted yet; only
        # subsequent retries advance around the ring.
        self._contact()

    def _contact(self) -> None:
        self._retry_sent_to = self.address
        self.heartbeat()
        self._retry_event = self.node.sim.schedule(
            RING_RETRY.delay(self._retry_attempt, self._rng),
            self._retry_tick,
        )

    def _retry_tick(self) -> None:
        self._retry_event = None
        if not self._silent():
            self._retry_attempt = 0
            return  # the coordinator answered while we were waiting
        if self._retry_sent_to == self.address:
            # Nothing repointed us since the last attempt: walk the ring.
            # (After a redirect the current address has not been tried
            # yet — advancing would skip the believed leader, and with
            # an unlucky ring layout could orbit it forever.)
            ring = self._ring
            self.address = ring[(ring.index(self.address) + 1) % len(ring)]
        self.retries += 1
        self._retry_attempt += 1
        self._contact()


def coordinator_hosts(n: int, k: int) -> Tuple[int, ...]:
    """The underlay nodes hosting the ``k`` coordinator endpoints of an
    ``n``-node overlay: spread out, so one host outage cannot take the
    whole membership plane down."""
    return tuple((i * n) // k for i in range(k))


#: A control operation buffered while no primary is live.
_PendingOp = Tuple[str, int, Optional[ViewCallback]]


class CoordinatorGroup:
    """The replicated :class:`~repro.overlay.membership.MembershipPlane`:
    ``k`` coordinators behind one facade.

    Control operations (``join`` / ``leave`` / ``evict`` / ``is_member``,
    the same calls a single :class:`MembershipService` takes) route to
    the acting primary, or are buffered while no primary is live and
    replayed (guarded, idempotently) at the next promotion.
    """

    __slots__ = (
        "_tunables",
        "coordinators",
        "addresses",
        "stats",
        "_members",
        "_pending_ops",
        "_clients",
    )

    def __init__(
        self,
        sim: Simulator,
        transport: DatagramTransport,
        addresses: Tuple[int, ...],
        hosts: Tuple[int, ...],
        service_factory: Callable[[], MembershipService],
        tunables: Replicated,
    ):
        if len(addresses) < 1 or len(addresses) != len(hosts):
            raise MembershipError("need one host per coordinator address")
        self._tunables = tunables
        self.stats = CounterSet()
        self.addresses = addresses
        self._clients: List[RingClient] = []
        self.coordinators = tuple(
            Coordinator(
                sim,
                transport,
                index=i,
                address=addr,
                host=hosts[i],
                addresses=addresses,
                service_factory=service_factory,
                stats=self.stats,
            )
            for i, addr in enumerate(addresses)
        )
        for coord in self.coordinators:
            coord._group = self
        #: Intended-membership ledger: who *should* be a member according
        #: to the control plane (joins minus leaves/evictions). Used to
        #: answer ``is_member`` and guard op replay while no primary is
        #: live; refresh expiry does not remove from it (expired members
        #: readmit themselves by heartbeating the new primary).
        self._members: set = set()
        self._pending_ops: List[_PendingOp] = []
        # Coordinator 0 is the initial primary at epoch 1 (epoch 0 is
        # the unreplicated legacy coordinator's).
        self.coordinators[0].become_primary()

    @property
    def primary(self) -> Optional[Coordinator]:
        """The acting primary: the best-claimed live primary, if any."""
        best: Optional[Coordinator] = None
        for coord in self.coordinators:
            if coord.role != ROLE_PRIMARY:
                continue
            if best is None or claim_beats(
                coord.epoch, coord.address, best.epoch, best.address
            ):
                best = coord
        return best

    def _head(self) -> Coordinator:
        """The acting primary, else whoever holds the newest view."""
        return self.primary or max(
            self.coordinators, key=lambda c: (c.epoch, c.held_view.version)
        )

    @property
    def view(self) -> MembershipView:
        """The newest view any coordinator holds."""
        return self._head().held_view

    def current_epoch_version(self) -> Tuple[int, int]:
        """The authoritative ``(epoch, version)`` pair right now."""
        head = self._head()
        return head.epoch, head.held_view.version

    def counters(self) -> Dict[str, int]:
        """Group counters, every live service's, and the ring clients'."""
        merged = self.stats.as_dict()
        for coord in self.coordinators:
            if coord.service is not None:
                for name, value in coord.service.stats.as_dict().items():
                    merged[name] = merged.get(name, 0) + value
        merged["node_failovers"] = sum(c.failovers for c in self._clients)
        merged["node_retries"] = sum(c.retries for c in self._clients)
        return merged

    def merged_stats(self) -> Dict[str, int]:
        """Read by bench/tracing.py; :meth:`counters` is the interface."""
        return self.counters()

    # ------------------------------------------------------------------
    # MembershipPlane
    # ------------------------------------------------------------------
    def attach(self, node: "OverlayNode", rng: np.random.Generator) -> None:
        # The per-node jitter rng is drawn only on this plane, so the
        # others keep their exact build streams.
        client = RingClient(
            node, self.addresses, np.random.default_rng(rng.integers(2**63))
        )
        node.membership = client
        self._clients.append(client)

    def bootstrap(self, nodes: Sequence["OverlayNode"]) -> None:
        """Install the initial population and replicate the snapshot.

        The snapshot replication messages ride the lossy wire like any
        other — a coordinator crash between bootstrap and their arrival
        is the "crash during bootstrap" fault, and recovery relies on
        pulls and member readmission rather than on the snapshot.
        """
        acting = self.primary
        if acting is None or acting.service is None:
            raise MembershipError("bootstrap requires a live primary")
        self._members.update(node.id for node in nodes)
        # Bootstrap delivery is synchronous callbacks (out-of-band
        # provisioning), which know nothing of epochs; bind the
        # primary's epoch in so nodes start at (epoch, v1) and the
        # first heartbeat round is not a spurious repair wave.
        epoch = acting.service.epoch
        acting.service.bootstrap(
            {node.id: partial(node.on_view, epoch=epoch) for node in nodes}
        )
        for addr in self.addresses:
            if addr != acting.address:
                acting._send_snapshot(addr)

    def admit(
        self, node: "OverlayNode", monitor_phase: float, router_phase: float
    ) -> None:
        readmit(self, node)
        # As on the single in-band coordinator: start when the join's
        # view arrives, re-requesting it just past the batching window.
        node.arm_start_on_view(
            monitor_phase, router_phase, 1.0 + self._tunables.notify_batch_s
        )
        node.membership.watch()

    def depart(self, node: "OverlayNode") -> None:
        node.teardown()
        self.leave(node.id)

    def is_member(self, member: int) -> bool:
        acting = self.primary
        if acting is not None and acting.service is not None:
            return acting.service.is_member(member)
        return member in self._members

    def join(self, member: int, callback: ViewCallback) -> None:
        self._members.add(member)
        acting = self.primary
        if acting is not None and acting.service is not None:
            acting.service.join(member, callback)
        else:
            self.stats.incr("ops_buffered")
            self._pending_ops.append(("join", member, callback))

    def leave(self, member: int) -> None:
        self._remove("leave", member)

    def evict(self, member: int) -> None:
        self._remove("evict", member)

    def _remove(self, op: str, member: int) -> None:
        self._members.discard(member)
        acting = self.primary
        if acting is None or acting.service is None:
            self.stats.incr("ops_buffered")
            self._pending_ops.append((op, member, None))
        elif acting.service.is_member(member):
            getattr(acting.service, op)(member)

    def quiesce(self) -> None:
        for coord in self.coordinators:
            coord.quiesce()
        for client in self._clients:
            client.on_node_stop()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash_coordinator(self, index: int) -> None:
        self.coordinators[index].crash()

    def restore_coordinator(self, index: int) -> None:
        self.coordinators[index].restore()

    # ------------------------------------------------------------------
    # Promotion replay
    # ------------------------------------------------------------------
    def _on_promoted(self, coord: Coordinator) -> None:
        """Replay control ops buffered while no primary was live.

        Replay is guarded so it composes with whatever state the mirror
        adopted: joins of current members and removals of absent ones
        are no-ops, never errors.
        """
        service = coord.service
        assert service is not None
        if not self._pending_ops:
            return
        ops, self._pending_ops = self._pending_ops, []
        for op, member, callback in ops:
            if op == "join":
                if not service.is_member(member) and member in self._members:
                    assert callback is not None
                    service.join(member, callback)
            elif service.is_member(member) and member not in self._members:
                getattr(service, op)(member)
        self.stats.incr("ops_replayed", len(ops))
