"""Router interface shared by the full-mesh baseline and the quorum router."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.net.packet import LinkStateMessage, RecommendationMessage
from repro.net.simulator import Simulator
from repro.net.transport import DatagramTransport
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.linkstate import LinkStateRow, RowBlock
from repro.overlay.membership import MembershipView
from repro.overlay.monitor import LinkMonitor

__all__ = ["Route", "RouterBase"]

#: Route source tags.
SOURCE_RECOMMENDATION = "recommendation"
SOURCE_LINKSTATE = "linkstate"
SOURCE_REDUNDANT = "redundant"
SOURCE_DIRECT = "direct"


@dataclass(frozen=True, slots=True)
class Route:
    """The overlay's current answer for "how do I reach ``dst``?".

    Attributes
    ----------
    dst / hop:
        View indices. ``hop == dst`` means the direct Internet path.
    cost_ms:
        Estimated round-trip cost of the path (``inf`` when unknown or
        unreachable).
    source:
        Where the route came from: a rendezvous ``recommendation``, the
        local ``linkstate`` table (full-mesh router), the ``redundant``
        neighbor-table fallback of §4.2, or the bare ``direct`` path.
    age_s:
        Seconds since the routing information was produced.
    """

    dst: int
    hop: int
    cost_ms: float
    source: str
    age_s: float

    @property
    def is_direct(self) -> bool:
        return self.hop == self.dst

    @property
    def usable(self) -> bool:
        return self.hop >= 0 and np.isfinite(self.cost_ms)


class RouterBase(abc.ABC):
    """Common structure: timers, view handling, message dispatch.

    Membership reaches a router as views only, through
    :meth:`on_view_change`; how a plane put the view on the wire (whole
    or as a delta) is the plane's business. A subclass says how to build
    its per-view state from nothing (:meth:`_rebuild_for_view`) and how
    to carry it to a view with another member set (:meth:`on_view_delta`).
    """

    kind: RouterKind

    # `table` is assigned by each subclass's _rebuild_for_view; declaring
    # the slot here keeps subclasses free to stay slotted.
    __slots__ = (
        "me",
        "sim",
        "transport",
        "monitor",
        "config",
        "row_block",
        "view",
        "me_idx",
        "table",
        "_timer",
        "dropped_stale_view",
        "_own_row_seen_version",
        "on_version_gap",
        "view_epoch",
    )

    def __init__(
        self,
        me: int,
        sim: Simulator,
        transport: DatagramTransport,
        monitor: LinkMonitor,
        config: OverlayConfig,
        row_block: Optional[RowBlock] = None,
    ):
        self.me = me
        self.sim = sim
        self.transport = transport
        self.monitor = monitor
        self.config = config
        #: The overlay's gathered row block, one for all its routers
        #: (``build_overlay`` hands it in); a router built alone makes
        #: its own when it first needs one.
        self.row_block = row_block
        self.view: Optional[MembershipView] = None
        self.me_idx: int = -1
        self._timer = None
        self.dropped_stale_view = 0
        #: Monitor state version the table's own row was last built from;
        #: -1 forces a full refresh (set on every view install).
        self._own_row_seen_version = -1
        #: Hook fired when a routing message from a *newer* view version
        #: is dropped — evidence that this node missed a membership
        #: update. With in-band (lossy) membership the node uses it to
        #: request repair without waiting for the next heartbeat.
        self.on_version_gap: Optional[Callable[[], None]] = None
        #: Coordinator epoch of the held view; 0 outside replicated
        #: deployments, where :meth:`wire_view_version` degenerates to
        #: the plain view version (identical wire values and tables).
        self.view_epoch: int = 0

    def wire_view_version(self) -> int:
        """The version tag routing messages carry and compare.

        Replicated membership orders views by ``(epoch, version)``;
        packing the epoch into the high bits preserves that order in a
        single integer comparison, and epoch 0 leaves every legacy
        value untouched.
        """
        assert self.view is not None
        return (self.view_epoch << 32) | self.view.version

    def _note_dropped_message(self, msg_version: int) -> None:
        """Account a routing message dropped for view reasons."""
        self.dropped_stale_view += 1
        if (
            self.view is not None
            and msg_version > self.wire_view_version()
            and self.on_version_gap is not None
        ):
            self.on_version_gap()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def routing_interval_s(self) -> float:
        return self.config.routing_interval_s(self.kind)

    def start(self, phase: float = 0.0) -> None:
        """Begin periodic routing ticks; first tick at ``phase``."""
        if self._timer is not None:
            raise RoutingError("router already started")
        self._timer = self.sim.periodic(self.routing_interval_s, self.tick, phase=phase)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def forget_view(self) -> None:
        """Drop the held view (node reboot): a rebooted incarnation must
        not chain deltas off — or refuse reinstalls of — its previous
        life's view. Routing state is rebuilt when the next view arrives."""
        self.view = None
        self.me_idx = -1

    def on_view_change(self, view: MembershipView) -> None:
        """Install ``view``: the one way a router is handed membership.

        Every plane calls this, whether the view came whole or was
        derived from a delta on the wire. With no view held (first
        install, or after :meth:`forget_view`) routing state is built
        from nothing. A view with the held member set only retags: every
        per-view structure is still valid, and only the version routing
        messages carry moves. Otherwise what was learned about surviving
        members moves to their new positions (:meth:`on_view_delta`).
        """
        held = self.view
        if held is not None and view.members == held.members:
            self.view = view
            return
        self.view = view
        self.me_idx = view.index_of(self.me)
        self._own_row_seen_version = -1
        if held is None:
            self._rebuild_for_view(view)
            return
        # Old view position -> new view position; -1 for departed
        # members. Both id arrays are sorted, so one search places every
        # old member, and an equality check tells who is still there.
        old_ids, new_ids = held.member_ids, view.member_ids
        old_to_new = np.searchsorted(new_ids, old_ids)
        old_to_new[new_ids[np.minimum(old_to_new, view.n - 1)] != old_ids] = -1
        self.on_view_delta(old_to_new)

    def _refresh_own_row(self) -> None:
        """(Re)install this node's own measurement row in the table.

        The row is built — projected onto view positions, put in
        effective form and frozen — once per monitor ``version`` and
        view; until the monitor measures something new only the row's
        receive time is touched, and :meth:`_own_linkstate` keeps
        publishing that one object. The full-mesh router calls this on
        every route query, so the skip is a hot-path win.
        """
        now = self.sim.now
        if self.monitor.version == self._own_row_seen_version:
            self.table.touch_row(self.me_idx, now)
            return
        ids = self.view.member_ids
        row = LinkStateRow(
            self.me_idx,
            self.monitor.latency_row()[ids],
            self.monitor.alive_row()[ids],
        )
        self.table.update_row(self.me_idx, row, now)
        self._own_row_seen_version = self.monitor.version

    def _own_linkstate(self) -> LinkStateMessage:
        """A round-1 message carrying the row this node's table holds for
        itself (by reference; call :meth:`_refresh_own_row` first)."""
        return LinkStateMessage(
            origin=self.me,
            row=self.table.row(self.me_idx),
            view_version=self.wire_view_version(),
        )

    # ------------------------------------------------------------------
    # View <-> underlay index projection helpers
    # ------------------------------------------------------------------
    @property
    def member_ids(self) -> np.ndarray:
        """Underlay node id per view position: the held view's read-only
        :attr:`MembershipView.member_ids`, so routers that hold one view
        object share one array. View position -> underlay
        (monitor/topology) index: node IDs are underlay indices, so bulk
        consumers use this to project view-indexed results onto stable
        underlay indices."""
        return self.view.member_ids

    def _require_view(self) -> MembershipView:
        if self.view is None:
            raise RoutingError(f"router at node {self.me} has no membership view")
        return self.view

    # ------------------------------------------------------------------
    # Abstract parts
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _rebuild_for_view(self, view: MembershipView) -> None:
        """Build per-view routing state (tables, grids, failover) from
        nothing: the first view a router (or a rebooted node) holds."""

    @abc.abstractmethod
    def on_view_delta(self, old_to_new: np.ndarray) -> None:
        """Carry per-view routing state to a view with another member
        set, already installed by :meth:`on_view_change`.
        ``old_to_new[p]`` is the new position of the member that held
        old position ``p``, or -1 when it left the view."""

    @abc.abstractmethod
    def tick(self) -> None:
        """One routing interval's worth of protocol activity."""

    @abc.abstractmethod
    def on_linkstate(self, msg: LinkStateMessage, src: int) -> None:
        """Handle a round-1 link-state message."""

    @abc.abstractmethod
    def on_recommendation(self, msg: RecommendationMessage, src: int) -> None:
        """Handle a round-2 recommendation message."""

    @abc.abstractmethod
    def route_to(self, dst_idx: int) -> Route:
        """Best currently-known route to view index ``dst_idx``."""

    @abc.abstractmethod
    def route_vector(self) -> Tuple[np.ndarray, np.ndarray]:
        """All destinations' routes in one call: ``(hops, usable)``.

        ``hops[d]`` equals ``route_to(d).hop`` and ``usable[d]`` equals
        ``route_to(d).usable`` for every view index ``d``. Bulk consumers
        (the ground-truth availability sampler, route-table dumps) use
        this instead of ``n`` separate :meth:`route_to` calls.
        """

    @abc.abstractmethod
    def last_rec_times(self) -> np.ndarray:
        """Per-destination time of last routing information (freshness)."""

    def last_rec_times_by_member(self, n_underlay: int) -> np.ndarray:
        """Freshness vector scattered onto stable underlay indices.

        Entries for non-members (or when this router has no view) are
        ``-inf``; the instrumentation treats them as "never heard".
        """
        out = np.full(n_underlay, -np.inf)
        if self.view is not None:
            out[self.view.member_ids] = self.last_rec_times()
        return out

    # ------------------------------------------------------------------
    # Link events (default: ignore; quorum router overrides)
    # ------------------------------------------------------------------
    def on_link_down(self, j: int) -> None:
        """Monitor verdict: link to view index ``j`` went down."""

    def on_link_up(self, j: int) -> None:
        """Monitor verdict: link to view index ``j`` recovered."""
