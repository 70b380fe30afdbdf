"""Centralized membership service (§5 "Membership Service").

The paper deliberately uses a simple coordinator rather than a distributed
consensus protocol: correctness of the quorum computation only requires
that nodes share a *consistent* membership view, from which each derives
the identical grid (sorted member IDs filled row-major). Membership
timeouts are long (30 minutes); transient failures are the overlay
failover mechanisms' job, not the membership service's.

The coordinator supports two delivery planes:

* **Out-of-band** (the default, and the mode every paper-parameter
  experiment runs in): view updates are delivered through simulator
  callbacks after a fixed ``NOTIFY_DELAY_S``. Delivery is reliable by
  construction — membership traffic is not part of the §6 bandwidth
  evaluation, so keeping it off the transport keeps that accounting
  exactly comparable to the paper's. What each update *would* occupy on
  the wire is still accounted (optionally into a
  :class:`~repro.overlay.stats.BandwidthRecorder` under the ``member``
  kind) so view-change cost is measurable.
* **In-band** (:meth:`MembershipService.attach_transport`): the
  coordinator is an addressable endpoint on the overlay transport,
  co-located at a host node whose links it shares, and every full view
  and :class:`ViewDelta` is a real wire message subject to loss,
  outages, and delivery delay. Because the wire is unreliable, delivery
  carries a reliability layer: members piggyback their held view
  version on :class:`~repro.net.packet.MembershipRefresh` heartbeats,
  the coordinator compares it against the published version, and on a
  gap re-sends the smallest bridging update (a coalesced delta from the
  log, or a full view when the log no longer reaches back). Until a
  lost update is repaired, live nodes transiently hold *different*
  views — the divergence the
  :class:`~repro.overlay.stats.DisruptionRecorder` view-divergence
  metric measures.

Incremental views (the delta protocol)
--------------------------------------

Convergence only requires that every node eventually hold the same
``(version, members)`` pair — it never requires shipping the full member
list on every change. With ``deltas=True`` the service therefore
maintains, besides the authoritative view, a bounded **delta log** of the
last ``DELTA_LOG_VERSIONS`` single-version transitions, and delivers each
subscriber the smallest update that bridges its last-delivered version:

* **Versioning** — every published view transition bumps ``version`` by
  exactly one and appends ``ViewDelta(version - 1, version, joined,
  left)`` to the log. The service remembers, per subscriber, the last
  version it delivered, so consecutive deltas always chain
  (``from_version`` equals the receiver's current version).
* **Gap handling** — if a subscriber's version gap cannot be bridged
  from the log (it fell more than ``DELTA_LOG_VERSIONS`` behind, or it
  has never held a view, as on join/reboot), the service falls back to a
  full :class:`MembershipView`; the ``view_gap_fallbacks`` counter
  records how often.
* **Batching window** — with ``notify_batch_s > 0`` changes are not
  published one at a time: all joins/leaves/expiries inside the window
  that opens at the first buffered change coalesce into **one** version
  bump and one delta broadcast. Membership remains authoritative
  immediately (``is_member``/``refresh`` see joins at once); only the
  published view lags by at most the window. A member that joins and
  leaves inside one window cancels out and is never published.

Deltas are O(changes) on the wire where full views are O(n) — see
:func:`repro.overlay.wire.membership_delta_message_bytes` — which is
what makes view changes affordable at n >= 1000
(``experiments/membership_scaling.py`` measures this).

The two membership interfaces
-----------------------------

Whatever delivers the member list, the rest of the overlay sees two
seams, both defined here. :class:`MembershipPlane` is what
:func:`~repro.overlay.harness.build_overlay` and
:class:`~repro.overlay.harness.Overlay` talk to (one per overlay);
:class:`MembershipClient` is what an
:class:`~repro.overlay.node.OverlayNode` talks to (one per node, made by
the plane's ``attach``). This module holds the two single-coordinator
planes (:class:`OutOfBandPlane`, :class:`InBandPlane`) and their clients;
:mod:`repro.overlay.coordination` and :mod:`repro.overlay.gossip` hold
the replicated and coordinator-free ones.
"""

from __future__ import annotations

import bisect
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import MembershipError
from repro.net.packet import (
    KIND_MEMBERSHIP,
    MembershipDelta,
    MembershipRefresh,
    MembershipUpdate,
    Message,
)
from repro.net.simulator import Simulator
from repro.overlay import wire
from repro.overlay.stats import BandwidthRecorder, CounterSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import DatagramTransport
    from repro.overlay.node import OverlayNode

__all__ = [
    "IN_BAND_EXPIRY_GRACE",
    "MembershipView",
    "ViewDelta",
    "ViewUpdate",
    "MembershipService",
    "MembershipPlane",
    "MembershipClient",
    "WireClient",
    "OutOfBandPlane",
    "InBandPlane",
    "readmit",
]


#: While a coordinator on the wire looks partitioned (it heard *no*
#: member heartbeat for over a third of the timeout) or is freshly
#: promoted, its refresh timeout is stretched by this factor, so a
#: coordinator outage cannot mass-expire healthy members. The
#: ``InBand`` and ``Replicated`` planes run with it.
IN_BAND_EXPIRY_GRACE = 4.0

#: Delay of an out-of-band view callback after publication.
NOTIFY_DELAY_S = 0.05

#: How many single-version transitions the delta log retains; a
#: subscriber further behind than this receives a full view.
DELTA_LOG_VERSIONS = 64


class _WeakReferable:
    """Gives a slotted dataclass a ``__weakref__`` slot (the dataclass
    ``weakref_slot`` flag needs Python 3.11)."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class MembershipView(_WeakReferable):
    """A versioned, sorted membership snapshot.

    All nodes holding the same version hold the same member tuple and
    therefore construct identical grids.
    """

    version: int
    members: Tuple[int, ...]
    _ids: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.members))) != self.members:
            raise MembershipError("view members must be sorted and unique")

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def member_ids(self) -> np.ndarray:
        """Underlay node id per view position: ``members`` as a read-only
        int64 array, built on first use and held by the view, so every
        router holding this view object reads the same array."""
        ids = self._ids
        if ids is None:
            ids = np.fromiter(self.members, dtype=np.int64, count=len(self.members))
            ids.flags.writeable = False
            object.__setattr__(self, "_ids", ids)
        return ids

    def position(self, member: int) -> int:
        """View position of ``member``, or -1 when it is not a member.

        The one-lookup form for receive paths that need both the
        membership test and the index.
        """
        members = self.members
        lo = bisect.bisect_left(members, member)
        if lo < len(members) and members[lo] == member:
            return lo
        return -1

    def index_of(self, member: int) -> int:
        """Grid/view position of ``member`` (row-major fill order)."""
        pos = self.position(member)
        if pos < 0:
            raise MembershipError(f"{member} not in view v{self.version}")
        return pos

    def __contains__(self, member: int) -> bool:
        return self.position(member) >= 0


@dataclass(frozen=True, slots=True)
class ViewDelta:
    """An incremental view update: ``from_version`` plus changes gives
    ``to_version``.

    ``joined`` and ``left`` are disjoint sorted member tuples; applying
    the delta to a view at exactly ``from_version`` yields the view at
    ``to_version``. Deltas are O(changes) on the wire where full views
    are O(n) — see :func:`repro.overlay.wire.membership_delta_message_bytes`.
    """

    from_version: int
    to_version: int
    joined: Tuple[int, ...]
    left: Tuple[int, ...]
    #: ``(held, derived)`` of the last :meth:`apply`, both weak: every
    #: subscriber holding an equal view gets the same derived object, and
    #: the memo keeps no view alive (a logged delta outlives its views).
    _memo: Optional[Tuple["weakref.ref[MembershipView]", "weakref.ref[MembershipView]"]] = (
        field(default=None, init=False, repr=False, compare=False)
    )

    def __post_init__(self) -> None:
        if self.to_version <= self.from_version:
            raise MembershipError(
                f"delta must move forward: v{self.from_version} -> "
                f"v{self.to_version}"
            )
        for name, ids in (("joined", self.joined), ("left", self.left)):
            if tuple(sorted(set(ids))) != ids:
                raise MembershipError(f"delta {name} must be sorted and unique")
        if set(self.joined) & set(self.left):
            raise MembershipError("delta joined and left must be disjoint")

    def apply(self, view: MembershipView) -> MembershipView:
        """The view at ``to_version``, derived from ``view``.

        ``view`` must be at exactly ``from_version`` (chained deltas are
        pre-coalesced by the service); joins must be new, leaves present.
        Applied again to the same view, or to an equal one, it returns
        the view it derived before: the subscribers of one coordinator
        share one view object and so one ``member_ids`` array.
        """
        memo = self._memo
        if memo is not None:
            held, derived = memo[0](), memo[1]()
            if derived is not None and (held is view or held == view):
                return derived
        if view.version != self.from_version:
            raise MembershipError(
                f"delta from v{self.from_version} cannot apply to "
                f"v{view.version}"
            )
        members = set(view.members)
        for m in self.left:
            if m not in members:
                raise MembershipError(f"delta removes non-member {m}")
            members.discard(m)
        for m in self.joined:
            if m in members:
                raise MembershipError(f"delta adds existing member {m}")
            members.add(m)
        result = MembershipView(version=self.to_version, members=tuple(sorted(members)))
        object.__setattr__(self, "_memo", (weakref.ref(view), weakref.ref(result)))
        return result


#: What the service delivers to subscribers: a full view or a delta.
ViewUpdate = Union[MembershipView, ViewDelta]

ViewCallback = Callable[[ViewUpdate], None]


def _noop_view(update: ViewUpdate) -> None:
    """Placeholder subscriber callback for in-band members.

    On the in-band plane delivery goes over the transport to the member's
    address; the callback is only consulted out-of-band. Readmitted and
    adopted members therefore subscribe with this no-op.
    """


def _coalesce_into(
    joined: set, left: set, new_joined: Tuple[int, ...], new_left: Tuple[int, ...]
) -> None:
    """Fold one transition's changes into running net-change sets.

    A join cancels a pending leave of the same member (and vice versa),
    so the running sets always describe the *net* difference from the
    base view.
    """
    for m in new_joined:
        if m in left:
            left.discard(m)
        else:
            joined.add(m)
    for m in new_left:
        if m in joined:
            joined.discard(m)
        else:
            left.add(m)


class MembershipService:  # reprolint: disable=RL002(one membership authority per overlay, not per node)
    """Coordinator tracking joins, leaves, and refresh timeouts.

    Parameters
    ----------
    deltas:
        Deliver :class:`ViewDelta` updates (with full-view fallback)
        instead of full views on every change. Off by default so the
        paper-parameter experiments keep their exact event schedules.
    notify_batch_s:
        Coalescing window for view publication; ``0`` publishes every
        change immediately (one version per change, the legacy cadence).
    bandwidth:
        Optional recorder; each delivered update's wire size is counted
        against the receiving member under the ``member`` kind.
    """

    def __init__(
        self,
        sim: Simulator,
        timeout_s: float = 1800.0,
        expiry_check_s: float = 60.0,
        deltas: bool = False,
        notify_batch_s: float = 0.0,
        bandwidth: Optional[BandwidthRecorder] = None,
        expiry_grace: float = 1.0,
    ):
        if timeout_s <= 0 or notify_batch_s < 0:
            raise MembershipError("bad membership service timing parameters")
        if expiry_grace < 1.0:
            raise MembershipError("expiry_grace must be >= 1")
        self._sim = sim
        self._timeout_s = timeout_s
        self._deltas = deltas
        self.notify_batch_s = notify_batch_s
        self._bandwidth = bandwidth
        self._last_refresh: Dict[int, float] = {}
        self._subscribers: Dict[int, ViewCallback] = {}
        self._version = 0
        self._view = MembershipView(version=0, members=())
        #: per-subscriber last delivered (scheduled) version; 0 = never
        #: held a view, which always forces a full-view delivery.
        self._delivered: Dict[int, int] = {}
        self._log: Deque[ViewDelta] = deque(maxlen=DELTA_LOG_VERSIONS)
        self._pending_joined: set = set()
        self._pending_left: set = set()
        self._flush_event = None
        #: Members removed involuntarily (refresh expiry) that are still
        #: owed the view transition that excludes them — the final "you
        #: are out" update a live-but-slow-refreshing node needs to stop
        #: routing on a stale grid.
        self._parting: Dict[int, ViewCallback] = {}
        #: In-band delivery plane (None = out-of-band callbacks).
        self._transport: Optional["DatagramTransport"] = None
        self.address: Optional[int] = None
        #: Coordinator epoch: 0 for the unreplicated legacy coordinator
        #: (zero wire cost, unchanged tables); replicated authorities
        #: start at 1 and bump on every failover promotion. Views order
        #: by ``(epoch, version)`` lexicographically.
        self._epoch = 0
        self._expiry_grace = expiry_grace
        #: Last time *any* member heartbeat reached this service — total
        #: silence is the signature of the coordinator (not the members)
        #: being partitioned, which gates the expiry grace multiplier.
        self._last_heard = sim.now
        #: Post-promotion grace deadline: until then expiry is stretched
        #: so members that were still heartbeating the dead primary are
        #: not mass-expired before their failover finds us.
        self._grace_until = 0.0
        #: Replication hook: called with each published ViewDelta (after
        #: the flush) so a coordinator can mirror its log to replicas.
        self.on_publish: Optional[Callable[[ViewDelta], None]] = None
        self.stats = CounterSet()
        self._expiry_timer = sim.periodic(
            expiry_check_s, self._expire_stale, phase=expiry_check_s
        )

    @property
    def view(self) -> MembershipView:
        """The last *published* view (batched changes may be pending)."""
        return self._view

    @property
    def epoch(self) -> int:
        """The coordinator epoch this service publishes under."""
        return self._epoch

    @property
    def delta_log(self) -> Tuple[ViewDelta, ...]:
        """The retained single-version transitions (oldest first)."""
        return tuple(self._log)

    def attach_transport(
        self,
        transport: "DatagramTransport",
        address: int,
        host: int = 0,
        register: bool = True,
    ) -> None:
        """Become an addressable endpoint: view updates go on the wire.

        The coordinator co-locates at underlay node ``host`` (sharing its
        links and byte accounting) and answers at ``address``, which must
        not collide with any node id — the harness uses ``n``. From this
        point on, every published view / delta is a real
        :class:`~repro.net.packet.MembershipUpdate` /
        :class:`~repro.net.packet.MembershipDelta` datagram, and members
        are expected to heartbeat with
        :class:`~repro.net.packet.MembershipRefresh` messages instead of
        calling :meth:`refresh` directly. ``bootstrap`` stays
        synchronous either way — it models out-of-band provisioning of
        the initial population, not a protocol exchange.

        With ``register=False`` the service binds to an address whose
        endpoint registration is owned by someone else (a replicated
        :class:`~repro.overlay.coordination.Coordinator`, which multiplexes
        its own control traffic and the service's on one endpoint).
        """
        if self._transport is not None:
            raise MembershipError("membership service already has a transport")
        self._transport = transport
        self.address = address
        if register:
            transport.register_endpoint(address, host, self.handle_message)

    def handle_message(self, msg: Message, src: int) -> None:
        """Transport delivery handler for the coordinator endpoint."""
        if isinstance(msg, MembershipRefresh):
            self.handle_refresh(msg.origin, msg.view_version, msg.epoch)

    def handle_refresh(
        self, member: int, held_version: int, held_epoch: int = 0
    ) -> None:
        """An in-band refresh: heartbeat plus held-view piggyback.

        Non-members (expelled nodes whose eviction notice was lost, or
        that refreshed after expiry) are answered with the current full
        view so they learn they are out instead of routing on a stale
        grid forever. For members, a ``held_version`` behind the
        published version reveals that a view update was lost on the
        wire; the coordinator re-sends the smallest bridging update.

        A replicated authority (``epoch >= 1``) additionally *readmits*
        non-members: a refresh proves the node alive, so whatever removed
        it from the view — expiry during a coordinator outage, a
        conflicting view published by a since-deposed primary — was
        wrong, and it implicitly re-joins rather than being told it is
        out. Crashed nodes never refresh, and voluntary leaves stop
        heartbeating first, so only wrongly-expelled members take this
        path.
        """
        self._last_heard = self._sim.now
        if member not in self._last_refresh:
            if self._epoch >= 1:
                self.stats.incr("readmissions")
                callback = self._parting.pop(member, None) or _noop_view
                self.join(member, callback)
                return
            self.stats.incr("refresh_from_nonmember")
            if member not in self._parting:
                # Already out of the published view: re-send the "you
                # are out" notice (the original may have been lost). A
                # member still in ``_parting`` is skipped — its eviction
                # is batched but unpublished, so the current view would
                # wrongly still contain it; the flush delivers the real
                # notice.
                self._push_parting(member, self._sim.now)
            return
        self._last_refresh[member] = self._sim.now
        if member in self._pending_joined:
            # Its admission is still buffered in the batching window; the
            # view including it will be pushed at the flush.
            return
        if held_epoch > self._epoch:
            # The member is ahead of us — we are a deposed primary that
            # has not fenced itself yet. Nothing useful to send.
            return
        if held_epoch == self._epoch and held_version >= self._version:
            return
        # Gap repair: bridge from what the member actually holds (the
        # delivered-version bookkeeping lies when pushes were lost).
        # Deltas only chain within one epoch; an epoch crossing always
        # falls back to the full view.
        update: Optional[ViewUpdate] = None
        if self._deltas and held_epoch == self._epoch and held_version > 0:
            update = self._coalesce_since(held_version)
            if update is None:
                self.stats.incr("view_gap_fallbacks")
        if update is None:
            update = self._view
        self.stats.incr("refresh_repairs")
        self._delivered[member] = self._version
        self._account(member, update, self._sim.now)
        self._push(member, update)

    @property
    def pending_changes(self) -> int:
        """Changes buffered in the current batching window."""
        return len(self._pending_joined) + len(self._pending_left)

    def is_member(self, member: int) -> bool:
        """Whether ``member`` is currently in the membership."""
        return member in self._last_refresh

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def bootstrap(self, members_and_callbacks: Dict[int, ViewCallback]) -> MembershipView:
        """Install an initial membership synchronously (no churn).

        Experiment harnesses use this so all nodes begin with view v1 at
        t=0 rather than replaying n join events.
        """
        if self._last_refresh:
            raise MembershipError("bootstrap on a non-empty membership service")
        now = self._sim.now
        for member, callback in members_and_callbacks.items():
            self._last_refresh[member] = now
            self._subscribers[member] = callback
        self._version += 1
        self._view = MembershipView(
            version=self._version, members=tuple(sorted(self._last_refresh))
        )
        # Iterate a snapshot: a callback may join/leave (mutating the
        # subscriber dict) without breaking the loop. Members a callback
        # removed are skipped; members a callback's change already
        # notified (the synchronous flush advanced their delivered
        # version) are not delivered the same view twice.
        for member, callback in list(self._subscribers.items()):
            if member not in self._subscribers:
                continue
            if self._delivered.get(member, 0) >= self._view.version:
                continue
            self._delivered[member] = self._view.version
            self._account(member, self._view, now)
            callback(self._view)
        return self._view

    def join(self, member: int, callback: ViewCallback) -> None:
        """Add a member; all members (incl. the new one) get the new view."""
        if member in self._last_refresh:
            raise MembershipError(f"{member} is already a member")
        self._last_refresh[member] = self._sim.now
        self._subscribers[member] = callback
        self._delivered[member] = 0  # force a full initial view
        self._parting.pop(member, None)  # a rejoiner is not "out" anymore
        self._record_change(joined=(member,))

    def leave(self, member: int) -> None:
        """Remove a member; remaining members get the new view."""
        if member not in self._last_refresh:
            raise MembershipError(f"{member} is not a member")
        del self._last_refresh[member]
        del self._subscribers[member]
        self._delivered.pop(member, None)
        self._record_change(left=(member,))

    def evict(self, member: int) -> None:
        """Forcibly drop a member without waiting for refresh expiry.

        Models a coordinator accepting a reboot report: the old (crashed)
        incarnation is removed at once so the node can cleanly re-``join``
        within the same run instead of raising "already a member".
        """
        self.leave(member)
        self.stats.incr("evictions")

    def refresh(self, member: int) -> None:
        """Heartbeat: keep ``member`` from expiring."""
        if member not in self._last_refresh:
            raise MembershipError(f"{member} is not a member")
        self._last_refresh[member] = self._sim.now

    def quiesce(self) -> None:
        """Stop expiry checking and publish any batched changes now.

        Experiment drivers call this to close a run deterministically:
        after the (delayed) notifications drain, every subscriber holds
        the final view regardless of where the expiry/batching timers
        happened to be.
        """
        self._expiry_timer.stop()
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self._flush()

    # ------------------------------------------------------------------
    # Replication support (coordinator failover)
    # ------------------------------------------------------------------
    def adopt(
        self,
        view: MembershipView,
        log: Tuple[ViewDelta, ...],
        epoch: int,
    ) -> None:
        """Install mirrored state as this service's authoritative state.

        Called exactly once, on an *empty* service, when a replica
        promotes itself to primary: the mirrored view becomes the member
        set, the mirrored log seeds delta chaining, and ``epoch`` (the
        promoted epoch, strictly above the mirrored one) fences every
        stale publication. All adopted members count as freshly
        refreshed, and the post-promotion expiry grace window opens —
        members were heartbeating the dead primary and need time to fail
        over to us.
        """
        if self._last_refresh:
            raise MembershipError("adopt on a non-empty membership service")
        if epoch <= self._epoch:
            raise MembershipError("adopted epoch must move forward")
        now = self._sim.now
        for member in view.members:
            self._last_refresh[member] = now
            self._subscribers[member] = _noop_view
            self._delivered[member] = view.version
        self._version = view.version
        self._view = view
        self._epoch = epoch
        for step in log:
            self._log.append(step)
        self._grace_until = now + self._timeout_s

    def republish(self) -> None:
        """Push the current full view to every member.

        A freshly promoted primary announces its epoch this way: the full
        view at the new epoch supersedes anything a deposed primary
        published, regardless of version numbers.
        """
        now = self._sim.now
        for member in sorted(self._subscribers):
            self._delivered[member] = self._version
            self._account(member, self._view, now)
            self._push(member, self._view)

    def deactivate(self) -> None:
        """Stop all timers and drop buffered (unpublished) changes.

        Used when a coordinator crashes (a crash mid-batch-window loses
        the window — the fault the scenario suite injects) and when a
        deposed primary fences itself after hearing a higher epoch.
        """
        self._expiry_timer.stop()
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self._pending_joined.clear()
        self._pending_left.clear()

    # ------------------------------------------------------------------
    # Publication: batching, delta log, notification
    # ------------------------------------------------------------------
    def _record_change(
        self, joined: Tuple[int, ...] = (), left: Tuple[int, ...] = ()
    ) -> None:
        _coalesce_into(self._pending_joined, self._pending_left, joined, left)
        if self.notify_batch_s <= 0:
            self._flush()
        elif self._flush_event is None:
            self._flush_event = self._sim.schedule(self.notify_batch_s, self._flush)

    def _flush(self) -> None:
        """Publish all buffered changes as one view transition."""
        self._flush_event = None
        joined = tuple(sorted(self._pending_joined))
        left = tuple(sorted(self._pending_left))
        self._pending_joined.clear()
        self._pending_left.clear()
        if joined or left:
            self._version += 1
            self._view = MembershipView(
                version=self._version, members=tuple(sorted(self._last_refresh))
            )
            delta = ViewDelta(
                from_version=self._version - 1,
                to_version=self._version,
                joined=joined,
                left=left,
            )
            self._log.append(delta)
            self.stats.incr("views_published")
            if self.on_publish is not None:
                self.on_publish(delta)
        self._notify_all()

    def _coalesce_since(self, from_version: int) -> Optional[ViewDelta]:
        """One delta covering ``(from_version, current]``, or None if the
        log no longer reaches back that far."""
        if not self._log or self._log[0].to_version > from_version + 1:
            return None
        if from_version == self._version - 1:
            # Steady state: every up-to-date subscriber needs exactly the
            # last logged transition — no rescan, no rebuild.
            return self._log[-1]
        joined: set = set()
        left: set = set()
        for step in self._log:
            if step.to_version <= from_version:
                continue
            _coalesce_into(joined, left, step.joined, step.left)
        return ViewDelta(
            from_version=from_version,
            to_version=self._version,
            joined=tuple(sorted(joined)),
            left=tuple(sorted(left)),
        )

    def _record_bandwidth(self, member: int, nbytes: int, t: float) -> None:
        # In-band, the transport accounts the real bytes of every send
        # and delivery; out-of-band the would-be wire size is credited
        # to the receiving member. Members beyond the recorder's initial
        # population (flash-crowd joiners) grow it rather than being
        # silently skipped, so per-member totals always equal the
        # aggregate stats counters.
        if self._transport is not None or self._bandwidth is None or member < 0:
            return
        if member >= self._bandwidth.n:
            self._bandwidth.grow_to(member + 1)
        self._bandwidth.record_in(member, KIND_MEMBERSHIP, nbytes, t)

    def _account(self, member: int, update: ViewUpdate, t: float) -> None:
        """Count what ``update`` occupies on the wire (§5 encoding)."""
        if isinstance(update, ViewDelta):
            nbytes = wire.membership_delta_message_bytes(
                len(update.joined), len(update.left)
            )
            self.stats.incr("view_delta_msgs")
            self.stats.incr("view_delta_bytes", nbytes)
        else:
            nbytes = wire.membership_message_bytes(update.n)
            self.stats.incr("view_full_msgs")
            self.stats.incr("view_full_bytes", nbytes)
        self._record_bandwidth(member, nbytes, t)

    def _wire_message(self, update: ViewUpdate) -> Message:
        if isinstance(update, ViewDelta):
            return MembershipDelta(
                origin=self.address,
                from_version=update.from_version,
                to_version=update.to_version,
                joined=update.joined,
                left=update.left,
                epoch=self._epoch,
            )
        return MembershipUpdate(
            origin=self.address,
            version=update.version,
            members=update.members,
            epoch=self._epoch,
        )

    def _push(
        self,
        member: int,
        update: ViewUpdate,
        callback: Optional[ViewCallback] = None,
    ) -> None:
        """Deliver ``update`` to ``member`` on the configured plane."""
        if self._transport is not None:
            self._transport.send(self.address, member, self._wire_message(update))
            return
        if callback is None:
            callback = self._subscribers[member]
        self._sim.schedule(NOTIFY_DELAY_S, callback, update)

    def _push_parting(
        self, member: int, t: float, callback: Optional[ViewCallback] = None
    ) -> None:
        """The final "you are out" update for an involuntarily removed
        member: the current full view, which no longer contains it.

        Counted under dedicated ``parting_notice*`` stats (not the
        ``view_full/delta`` counters) so view-update accounting stays
        comparable across delivery planes and with older tables.
        """
        if self._transport is None and callback is None:
            return
        self.stats.incr("parting_notices")
        nbytes = wire.membership_message_bytes(self._view.n)
        self.stats.incr("parting_notice_bytes", nbytes)
        self._record_bandwidth(member, nbytes, t)
        self._push(member, self._view, callback)

    def _notify_all(self) -> None:
        deliver_at = self._sim.now + NOTIFY_DELAY_S
        # All subscribers at the same delivered version need the same
        # coalesced delta; compute it once per distinct version.
        coalesced: Dict[int, Optional[ViewDelta]] = {}
        for member, callback in list(self._subscribers.items()):
            delivered = self._delivered.get(member, 0)
            if delivered >= self._version:
                continue
            update: Optional[ViewUpdate] = None
            if self._deltas and delivered > 0:
                if delivered not in coalesced:
                    coalesced[delivered] = self._coalesce_since(delivered)
                update = coalesced[delivered]
                if update is None:
                    self.stats.incr("view_gap_fallbacks")
            if update is None:
                update = self._view
            self._delivered[member] = self._version
            self._account(member, update, deliver_at)
            self._push(member, update, callback)
        # Expired members learn the view transition that excluded them —
        # without this, a live node whose refreshes were merely slow (or
        # lost) keeps routing on a stale grid forever.
        if self._parting:
            parting, self._parting = self._parting, {}
            for member, callback in parting.items():
                self._push_parting(member, deliver_at, callback)

    def _expire_stale(self) -> None:
        now = self._sim.now
        timeout = self._timeout_s
        if self._transport is not None and self._expiry_grace > 1.0:
            # Graceful degradation: if *no* member heartbeat has reached
            # us for over a third of the timeout (we — not they — look
            # partitioned or freshly crashed-and-restored), or we are
            # inside the post-promotion grace window (members are still
            # failing over from the dead primary), stretch the timeout
            # instead of mass-expiring healthy members.
            silent = now - self._last_heard > self._timeout_s / 3.0
            if silent or now < self._grace_until:
                timeout *= self._expiry_grace
        stale = [
            m
            for m, last in self._last_refresh.items()
            if now - last > timeout
        ]
        if not stale:
            return
        for m in stale:
            del self._last_refresh[m]
            # Keep the callback: the eviction is published *after* this,
            # and the expired member must still receive it (it may be a
            # live node whose refreshes were slow or lost).
            self._parting[m] = self._subscribers.pop(m)
            self._delivered.pop(m, None)
        self.stats.incr("expiries", len(stale))
        self._record_change(left=tuple(sorted(stale)))


# ----------------------------------------------------------------------
# The two membership interfaces
# ----------------------------------------------------------------------
class MembershipClient(Protocol):
    """What an :class:`~repro.overlay.node.OverlayNode` asks of its
    membership plane: the node owns lifecycle and message dispatch, the
    client everything about how views reach it."""

    def on_node_start(self, monitor_phase: float, router_phase: float) -> None:
        """The node's timers started; arm the client's own."""

    def on_node_stop(self) -> None:
        """The node stopped (left, crashed, expelled); disarm them."""

    def heartbeat(self) -> None:
        """Fired by the timer a client arms with
        :meth:`OverlayNode.start_heartbeat`; a client that arms none is
        never asked."""

    def on_message(self, msg: Message, src: int) -> None:
        """Every datagram that is not routing traffic."""

    def on_version_gap(self) -> None:
        """A peer routes on a newer view than the node holds."""


class MembershipPlane(Protocol):
    """What the harness asks of a membership plane.

    Each plane owns its join/leave ordering, when a joiner's timers
    start, and whether a node costs a draw from the build rng.
    """

    @property
    def view(self) -> MembershipView:
        """The authoritative (or merged) view, for reporting."""

    def attach(self, node: "OverlayNode", rng: np.random.Generator) -> None:
        """Give ``node`` its :class:`MembershipClient` (``rng`` is the
        build stream; draw from it only if the client needs its own)."""

    def bootstrap(self, nodes: Sequence["OverlayNode"]) -> None:
        """Install ``nodes`` as the initial membership, synchronously."""

    def admit(
        self, node: "OverlayNode", monitor_phase: float, router_phase: float
    ) -> None:
        """Join ``node`` and arrange for it to start with these phases."""

    def depart(self, node: "OverlayNode") -> None:
        """Graceful leave: announce it and take ``node`` off the network."""

    def is_member(self, member: int) -> bool: ...

    def counters(self) -> Dict[str, int]:
        """The plane's event counters, summed over its parts."""

    def quiesce(self) -> None:
        """Stop every timer the plane owns; publish anything batched."""


class CoordinatorClient:
    """Node-side half of every coordinator plane: orders the views a
    coordinator delivers through :meth:`OverlayNode.on_view` and hands
    them to the router. Subclasses add how the node heartbeats and, on
    an unreliable wire, how it asks for a missed update."""

    __slots__ = ("node", "dropped_unappliable_deltas", "dropped_stale_full_views")

    def __init__(self, node: "OverlayNode"):
        self.node = node
        #: Deltas whose base version did not match the held view (an
        #: earlier update was lost on the wire).
        self.dropped_unappliable_deltas = 0
        #: Full views at or below the already-held version (repair
        #: resends racing regular publication); ignored, not re-installed.
        self.dropped_stale_full_views = 0

    def on_node_start(self, monitor_phase: float, router_phase: float) -> None:
        # Heartbeat well inside the membership timeout so a live node is
        # never expired (§5: timeouts are long; only truly dead nodes go
        # silent for a whole timeout).
        self.node.start_heartbeat(self.node.config.membership_timeout_s / 3.0)

    def on_node_stop(self) -> None:
        pass

    def reset(self) -> None:
        """The node is about to join as a fresh incarnation."""

    def on_message(self, msg: Message, src: int) -> None:
        pass

    def on_version_gap(self) -> None:
        pass

    def on_expelled(self) -> None:
        """The authority said this node is out: stop for good."""
        self.node.stop()

    def on_view(self, update: ViewUpdate, epoch: int) -> None:
        """Order a full view or a delta, then hand the router the view.

        A view that no longer contains this node means it was removed
        (leave or expiry). A torn-down (crashed) node ignores pushes —
        it is off the network. A delta is applied here, to the held
        view, and the router is handed the view it yields: deltas are a
        wire format, and the router carries its state across a full view
        and a derived one alike (:meth:`RouterBase.on_view_change`). An
        unappliable delta means an earlier update was lost:
        :meth:`on_version_gap` asks for the bridging update.

        With replicated coordinators, views order by ``(epoch,
        version)``, the held epoch being the router's ``view_epoch``: a
        full view at a higher epoch installs even when its version
        number is lower (the promoted primary's numbering continues the
        mirrored log, which may trail what a deposed primary published),
        a lower epoch is always stale, and deltas only apply within the
        held epoch.
        """
        node = self.node
        if not node.registered:
            return
        router = node.router
        current = router.view
        if isinstance(update, ViewDelta):
            if (
                current is None
                or epoch != router.view_epoch
                or current.version != update.from_version
            ):
                self.dropped_unappliable_deltas += 1
                self.on_version_gap()
                return
            update = update.apply(current)
            if node.id not in update:
                self.on_expelled()
                return
        elif epoch < router.view_epoch:
            # A deposed primary's stale publication; the fencing rule
            # guarantees the higher epoch is the surviving authority.
            self.dropped_stale_full_views += 1
            return
        if (
            current is not None
            and epoch == router.view_epoch
            and update.version <= current.version
        ):
            # A repair resend that raced regular publication; the held
            # view is already at least this fresh — do not reinstall.
            self.dropped_stale_full_views += 1
            return
        if node.id not in update:
            if node.armed:
                # A pre-rejoin expulsion still in flight (the previous
                # incarnation's "you are out"); the join's view — which
                # contains this node — is right behind it. Stopping here
                # would cancel the armed start and strand the node.
                self.dropped_stale_full_views += 1
                return
            self.on_expelled()
            return
        router.view_epoch = epoch
        router.on_view_change(update)
        node.start_if_armed()


class CallbackClient(CoordinatorClient):
    """Client of the out-of-band coordinator: delivery is reliable by
    construction (nothing to repair, nothing arrives on the wire) and
    the heartbeat is a direct call on the service."""

    __slots__ = ("_service",)

    def __init__(self, node: "OverlayNode", service: MembershipService):
        super().__init__(node)
        self._service = service

    def heartbeat(self) -> None:
        # A heartbeat may race its own expiry/leave by one notify delay,
        # so it checks membership before refreshing.
        if self._service.is_member(self.node.id):
            self._service.refresh(self.node.id)


class WireClient(CoordinatorClient):
    """Client of an in-band coordinator at ``address``: heartbeats are
    :class:`~repro.net.packet.MembershipRefresh` datagrams piggybacking
    the held view, which is also how a missed update is detected and
    its repair requested."""

    __slots__ = ("address", "_repair_requested_for")

    def __init__(self, node: "OverlayNode", address: int):
        super().__init__(node)
        self.address = address
        #: Held ``(epoch, version)`` a repair was already requested for:
        #: one nack per detected gap. Every install moves the held pair
        #: forward, which re-arms the request.
        self._repair_requested_for: Optional[Tuple[int, int]] = None

    def reset(self) -> None:
        super().reset()
        self._repair_requested_for = None

    def _held(self) -> Tuple[int, int]:
        """The ``(epoch, version)`` a refresh piggybacks; (0, 0) = none."""
        router = self.node.router
        if router.view is None:
            return (0, 0)
        return (router.view_epoch, router.view.version)

    def heartbeat(self) -> None:
        epoch, version = self._held()
        self.node.transport.send(
            self.node.id,
            self.address,
            MembershipRefresh(
                origin=self.node.id, view_version=version, epoch=epoch
            ),
        )

    def on_message(self, msg: Message, src: int) -> None:
        if isinstance(msg, MembershipUpdate):
            self.node.on_view(
                MembershipView(version=msg.version, members=msg.members),
                msg.epoch,
            )
        elif isinstance(msg, MembershipDelta):
            self.node.on_view(
                ViewDelta(
                    from_version=msg.from_version,
                    to_version=msg.to_version,
                    joined=msg.joined,
                    left=msg.left,
                ),
                msg.epoch,
            )

    def on_version_gap(self) -> None:
        held = self._held()
        if self._repair_requested_for != held:
            self._repair_requested_for = held
            self.heartbeat()


def readmit(authority, node: "OverlayNode") -> None:
    """Join ``node`` at a coordinator ``authority`` (a service or a
    replicated group), first evicting a crashed incarnation whose
    refresh has not yet expired — a reboot within the same run."""
    node.membership.reset()
    if authority.is_member(node.id):
        authority.evict(node.id)
    authority.join(node.id, node.on_view)


class OutOfBandPlane:  # reprolint: disable=RL002(one plane per overlay, not per node)
    """The paper-mode plane (§5): one epoch-0 coordinator delivering
    views by simulator callback. :class:`InBandPlane` puts the same
    coordinator on the wire."""

    def __init__(self, service: MembershipService):
        self.service = service

    @property
    def view(self) -> MembershipView:
        return self.service.view

    @property
    def stats(self) -> CounterSet:
        """Read by bench/tracing.py; :meth:`counters` is the interface."""
        return self.service.stats

    def counters(self) -> Dict[str, int]:
        return self.service.stats.as_dict()

    def is_member(self, member: int) -> bool:
        return self.service.is_member(member)

    def quiesce(self) -> None:
        self.service.quiesce()

    def attach(self, node: "OverlayNode", rng: np.random.Generator) -> None:
        node.membership = CallbackClient(node, self.service)

    def bootstrap(self, nodes: Sequence["OverlayNode"]) -> None:
        self.service.bootstrap({node.id: node.on_view for node in nodes})

    def admit(
        self, node: "OverlayNode", monitor_phase: float, router_phase: float
    ) -> None:
        readmit(self.service, node)
        # Start strictly after the membership push lands — which with a
        # batching window may lag the join by up to the window.
        node.schedule_start(
            0.1 + self.service.notify_batch_s, monitor_phase, router_phase
        )

    def depart(self, node: "OverlayNode") -> None:
        node.teardown()
        self.service.leave(node.id)


class InBandPlane(OutOfBandPlane):  # reprolint: disable=RL002(one plane per overlay, not per node)
    """The same coordinator after :meth:`MembershipService.attach_transport`:
    an endpoint sharing its host's links, whose view updates are real
    datagrams on the same lossy wire the overlay routes over."""

    def attach(self, node: "OverlayNode", rng: np.random.Generator) -> None:
        node.membership = WireClient(node, self.service.address)

    def admit(
        self, node: "OverlayNode", monitor_phase: float, router_phase: float
    ) -> None:
        readmit(self.service, node)
        # The join's full view travels the (lossy) wire: start when it
        # actually arrives, and re-request it until then. The interval
        # sits just past the batching window so a node never nags the
        # coordinator about a view that is still legitimately buffered.
        node.arm_start_on_view(
            monitor_phase, router_phase, 1.0 + self.service.notify_batch_s
        )
