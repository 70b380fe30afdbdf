"""Rapid rendezvous failover (§4.1).

Each node tracks, per destination, the health of the two default
rendezvous servers (the grid intersections). A server has *proximally*
failed when the node's own link monitor marks it down. It has *remotely*
failed for a destination by the paper's rule: the node detects it "by
observing that k **stopped** recommending any route to node j" —

* **by omission**: a recommendation message from the server arrives
  without an entry for the destination, *and the server was covering
  that destination before* (it has listed it at least once since the
  two became a default pair for this node). A default rendezvous can
  only recommend ``j`` once ``j``'s own link-state row has reached it,
  so at bootstrap, and after every view change that hands it new
  clients, its first messages leave out the destinations it has not
  heard from yet. That is "has not started", not "stopped": read as
  failure it makes every client fail over away from every rendezvous
  that ticks early (4746 adoptions on a lossless static n = 256
  overlay, none of them after a fault). An *adopted* failover server
  needs no prior cover: it was picked from the destination's own row
  and column, so the destination is one of its clients already, and it
  was sent this node's row the moment it was adopted — a message from
  it that leaves the destination out is its answer, and the paper's
  "failed failover".
* **by timeout**: the server has not covered the destination for
  ``remote_timeout_s``, counted from its last cover but never from
  before this node began expecting one (the view version that made it
  the destination's default, the adoption for a failover server — a
  cover that predates the adoption says nothing about the answer to
  it). This is the backstop for lost messages, and what still catches
  a default that never covers at all: a rendezvous that is up for this
  node but cut off from the destination, or silent altogether.

When both defaults have failed for a destination (a "double rendezvous
failure", the quantity of Figure 11), the node selects a failover
rendezvous **uniformly at random** from the destination's row+column (so
concurrent failovers spread load), sends it a link-state table, and
expects recommendations. Failed failovers are excluded and retried; after
the initial failover the node first checks that the destination is alive
at all — visible through any of its rendezvous clients' link-state tables
— before trying further servers, which prevents the whole overlay from
churning through a dead node's row and column (§4.1's last paragraph).

The manager is deliberately free of I/O: the router feeds it events and
polls it, so every §4 behaviour is unit-testable in isolation.

State layout
------------
Failover state is indexed by *view position* (the grid holds ``0..n-1``).
A manager holds what the node learned, the node's default pairs, and
references to what the view size alone determines; nothing else the
grid already says is copied per node.

* **Default pairs** — every destination has at most two default
  servers. ``_pair`` (``(n, 2)`` int64 from
  :meth:`GridQuorum.default_pairs`, ``-1`` for none) names them, and
  their evidence lives in ``(n, 2)`` arrays beside it: the last cover
  time (``-inf`` = never) and when the node began expecting the server
  to cover. ``set_grid`` blanks both; on a view change
  :meth:`FailoverManager.carry_over` then moves the previous view's
  values into every slot whose (server, destination) members were a
  default pair already, so "has covered" means "since the two became a
  default pair", not "under this view version".
* **An omission is one number per server.** A message from a server
  either lists a destination it is a default for or leaves it out, so
  "its latest message left ``dst`` out" needs no time of its own: with
  ``heard[server]`` the arrival time of the server's last message (one
  ``(n,)`` array, carried by member across view changes), the slot's
  last omission is newer than its last cover exactly when
  ``heard[server] > cover[dst, slot]``. Three cases: the last message
  listed ``dst`` — it wrote ``cover = heard``, no omission; it left
  ``dst`` out — ``cover`` kept an earlier time, ``heard > cover``; the
  slot is blank (a new pair, or a server never heard from) — ``cover``
  is ``-inf``, which the "only once it has covered" rule ignores
  whatever ``heard`` says. A message writes ``heard`` and the covers it
  renews, nothing per omitted destination. A server never lists itself,
  so omissions do not count in the slot where the server *is* the
  destination (same row/column). ``poll`` derives each slot's link
  (the server, or the destination where this node is the rendezvous)
  and the absent / own / omission-counting masks from ``_pair`` on every
  call, then the proximal / remote / both-failed masks for all
  destinations, in a handful of array operations.
* **One slot index per view size.** ``note_recommendations`` renews the
  covers of one server through a per-server index of flat positions
  ``dst * 2 + slot``, and which slots a server fills depends on the
  view size alone: for a node at grid cell ``(ri, ci)``, the server at
  ``(ri, c)`` is slot 0 of every destination in column ``c``, and the
  server at ``(r, ci)`` slot 1 of every destination in row ``r``. The
  §3 blank-space substitutes add two cases: for a bottom-row node, the
  server at ``(ci, c)`` stands in for the blank ``(ri, c)`` (slot 0,
  column ``c``); for a node in a blank column, the server at
  ``(r, ci)`` also stands in for the blank ``(bottom, ci)`` towards the
  bottom-row node in column ``r`` (slot 1, after row ``r``). The
  ``(destinations, flat positions)`` arrays are built once per size
  (:class:`_SizeIndex`); a manager's per-server dict only refers to
  them.
* **Off-default pairs** — a server's message also covers destinations
  it is *not* a default for, but a verdict reads that only for a server
  this node *adopted* for the destination. So a log
  (:class:`_OffDefaultLog`) exists only for a server this node has
  adopted, and keeps, for the destinations it was adopted for and from
  the first adoption on, the last cover, the last omission while it was
  the active failover, and the last adoption. That is exact: the
  timeout runs from ``max(cover, adopted_at)``, and omissions are
  recorded only while adopted, so a cover older than the first adoption
  reads the same as none. The exception is a cover at the adoption's
  own instant, from a message that arrived before the poll that
  adopted: the manager keeps the listed-destination masks of every
  message of the current sim instant (dropped when the clock moves) and
  seeds the cover from them.
* **Scalar on purpose** — adopting, judging and retiring failover
  servers runs per double-failed destination, in ascending order, in
  plain Python: it draws from the node's random stream, and the order
  of the draws is part of the per-seed results. Only double-failed
  destinations reach it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.grid import GridQuorum, grid_dimensions
from repro.errors import RoutingError

__all__ = ["FailoverConfig", "FailoverPoll", "FailoverManager"]

SeesAliveFn = Callable[[int], bool]
#: A server's destinations (ascending) and their flat slot positions.
Slots = Tuple[np.ndarray, np.ndarray]

#: "No such event yet" in the time arrays.
_NEVER = -np.inf

#: :meth:`_SizeIndex.of_size`'s indexes, by view size.
_INDEX_OF_SIZE: Dict[int, "_SizeIndex"] = {}


def _known(t: float) -> Optional[float]:
    return None if t == _NEVER else float(t)


@dataclass(frozen=True)
class FailoverConfig:
    """Timing knobs for failure detection.

    Attributes
    ----------
    remote_timeout_s:
        How long a server may go without covering a destination before it
        is presumed remotely failed (backstop for lost recommendation
        messages; an omission by a server that was covering triggers
        immediately).
    """

    remote_timeout_s: float = 37.5  # 2.5 routing intervals at r = 15 s

    def __post_init__(self) -> None:
        if self.remote_timeout_s <= 0:
            raise RoutingError("remote_timeout_s must be positive")


@dataclass
class _DstState:
    """Failover bookkeeping for one destination."""

    active: Optional[int] = None
    excluded: Set[int] = field(default_factory=set)
    attempts: int = 0
    suppressed: bool = False
    #: §4.1 footnote 8: the active failover is only reachable through a
    #: temporary one-hop relay, so proximal health checks don't apply.
    via_relay: bool = False


@dataclass
class FailoverPoll:
    """Result of one failover evaluation pass.

    Attributes
    ----------
    adopted:
        Newly selected ``(destination, failover_server)`` pairs; the
        router should send its link state to these servers immediately.
    extra_servers:
        All currently active failover servers (receive link state each
        routing tick, in addition to the default rendezvous set).
    double_failures:
        Number of destinations whose both default rendezvous are
        currently failed — the per-interval quantity of Figure 11.
    suppressed:
        Number of destinations on which failover is paused because the
        destination itself appears dead.
    """

    adopted: List[Tuple[int, int]] = field(default_factory=list)
    #: footnote-8 adoptions: failovers only reachable via a relay.
    adopted_via_relay: List[Tuple[int, int]] = field(default_factory=list)
    extra_servers: Set[int] = field(default_factory=set)
    #: subset of ``extra_servers`` that must be addressed through relays.
    relay_servers: Set[int] = field(default_factory=set)
    double_failures: int = 0
    #: destinations whose both defaults are unreachable *from this node*
    #: (proximal only) — the exact quantity Figure 11 plots.
    proximal_double_failures: int = 0
    suppressed: int = 0


class _OffDefaultLog:
    """What one adopted failover server answered about the destinations
    it was adopted for, from the first adoption on.

    See "State layout" in the module docstring.
    """

    __slots__ = ("covers", "omitted", "adopted_at")

    def __init__(self) -> None:
        #: dst -> last cover time since the first adoption for dst (a
        #: cover earlier in that adoption's own instant included).
        self.covers: Dict[int, float] = {}
        #: dst -> last affirmative omission while adopted for dst.
        self.omitted: Dict[int, float] = {}
        #: dst -> when this node last adopted the server for dst.
        self.adopted_at: Dict[int, float] = {}


def _slots(dsts: np.ndarray, slot: int) -> Slots:
    return dsts, dsts * 2 + slot


class _SizeIndex:
    """What every manager of one view size derives from the grid alone:
    which slots each server's message renews, and the destination of
    every slot. Built once per size and process (see "State layout")."""

    __slots__ = ("n", "cols", "fill", "dst_of_slot", "_columns", "_rows", "_rows_blank", "_own")

    @classmethod
    def of_size(cls, n: int) -> "_SizeIndex":
        index = _INDEX_OF_SIZE.get(n)
        if index is None:
            index = _INDEX_OF_SIZE[n] = cls(n)
        return index

    def __init__(self, n: int):
        rows, cols = grid_dimensions(n)
        self.n, self.cols = n, cols
        #: Filled cells of the bottom row; columns from here on are blank there.
        self.fill = n - (rows - 1) * cols
        position = np.arange(n)
        #: ``dst_of_slot[dst, 0] == dst``, broadcasting over both slots.
        self.dst_of_slot = position[:, None]
        in_row = [position[r * cols : (r + 1) * cols] for r in range(rows)]
        #: Slot 0 of column c's destinations.
        self._columns = [_slots(position[c::cols], 0) for c in range(cols)]
        #: Slot 1 of row r's destinations; ``_rows_blank`` for a server
        #: in a blank column, which also stands in for the blank bottom
        #: cell of its column towards the bottom-row node in column r.
        self._rows = [_slots(row, 1) for row in in_row]
        self._rows_blank = self._rows
        if self.fill < cols:
            bottom = (rows - 1) * cols
            self._rows_blank = [
                _slots(np.append(row, bottom + r) if r < self.fill else row, 1)
                for r, row in enumerate(in_row)
            ]
        #: position -> its slots as a server for itself, built on demand.
        self._own: Dict[int, Slots] = {}

    def slots_by_server(self, me: int) -> Dict[int, Slots]:
        """Server -> the slots its message renews for the node at ``me``:
        :meth:`GridQuorum.default_pairs` ``(me)`` inverted."""
        n, cols = self.n, self.cols
        ri, ci = divmod(me, cols)
        out: Dict[int, Slots] = {}
        for c, column in enumerate(self._columns):
            server = ri * cols + c
            # A blank (ri, c) — this node is in the bottom row — has the
            # §3 substitute (ci, c).
            out[server if server < n else ci * cols + c] = column
        rows = self._rows_blank if ci >= self.fill else self._rows
        for r, row in enumerate(rows):
            server = r * cols + ci
            if server < n:
                out[server] = row
        # This node's own cell was given its column's and its row's
        # slots above; as a server for itself it has both, minus itself.
        own = self._own.get(me)
        if own is None:
            flat = np.concatenate((self._columns[ci][1], rows[ri][1]))
            flat = np.sort(flat[flat >> 1 != me])
            own = self._own[me] = (flat >> 1, flat)
        if own[1].size:
            out[me] = own
        else:
            del out[me]
        return out


class FailoverManager:
    """Per-node §4.1 failover logic. See module docstring."""

    def __init__(
        self,
        me: int,
        rng: np.random.Generator,
        config: Optional[FailoverConfig] = None,
    ):
        self.me = me
        self._rng = rng
        self.config = config or FailoverConfig()
        self._grid: Optional[GridQuorum] = None
        self._state: Dict[int, _DstState] = {}
        self._off_default: Dict[int, _OffDefaultLog] = {}

    # ------------------------------------------------------------------
    # Configuration inputs
    # ------------------------------------------------------------------
    def set_grid(self, grid: GridQuorum, now: float) -> None:
        """Install a (new) membership grid; resets all failover state.

        The grid must be over view positions ``0..n-1`` (the routers'
        shared grids are, by construction), because destinations index
        the state arrays.
        """
        n = grid.n
        if not grid.shared and grid.members != list(range(n)):
            raise RoutingError("failover manager needs a grid over view positions 0..n-1")
        self._grid = grid
        self._state.clear()
        self._off_default.clear()
        index = _SizeIndex.of_size(n)
        self._pair = grid.default_pairs(self.me)
        self._dst_of_slot = index.dst_of_slot
        self._cover = np.full((n, 2), _NEVER)
        #: When each server's last message arrived, whatever it listed.
        self._heard = np.full(n, _NEVER)
        #: When this node began expecting each slot's server to cover:
        #: now (one broadcast scalar), until :meth:`carry_over` finds
        #: pairs that are older than this grid.
        self._since = np.broadcast_to(np.float64(now), (n, 2))
        self._cover_flat = self._cover.reshape(-1)
        #: server -> (destinations it is a default for, ascending, and
        #: their flat positions dst * 2 + slot in the (n, 2) arrays);
        #: the arrays are the view size's, shared by every manager.
        self._slots_by_server = index.slots_by_server(self.me)
        #: The listed-destination mask of every message of the current
        #: sim instant, by server: an adoption at this instant seeds its
        #: cover from them.
        self._instant = _NEVER
        self._instant_messages: Dict[int, List[np.ndarray]] = {}

    def carry_over(self, old: "FailoverManager", old_to_new: np.ndarray) -> None:
        """Keep what the previous view version's manager knew about every
        default pair that survives into this grid.

        ``old_to_new[p]`` is the new view position of the member at old
        position ``p`` (-1: departed). Where ``(server, dst)`` was a
        default pair for this node under ``old``'s grid and still is one,
        its last cover and expecting-since time move to the new slot, and
        every surviving server's last message time moves with the member
        (so does its last omission, which is the two compared): "was
        recommending it" holds across a view change, and a silent
        server's timeout does not restart with every join. Pairs the new
        grid creates keep :meth:`set_grid`'s blank slate, and so do
        adopted failovers (re-adopted while the need remains).
        """
        self._since = self._since.copy()
        old_dst = np.flatnonzero(old_to_new >= 0)
        dst = old_to_new[old_dst]
        self._heard[dst] = old._heard[old_dst]
        was = old._pair[old_dst]
        was = np.where(was >= 0, old_to_new[was], -1)
        for slot in (0, 1):
            for old_slot in (0, 1):
                server = was[:, old_slot]
                same = (self._pair[dst, slot] == server) & (server >= 0)
                for mine, theirs in (
                    (self._cover, old._cover),
                    (self._since, old._since),
                ):
                    mine[dst[same], slot] = theirs[old_dst[same], old_slot]

    @property
    def grid(self) -> GridQuorum:
        if self._grid is None:
            raise RoutingError("failover manager has no grid yet")
        return self._grid

    def default_pair(self, dst: int) -> Tuple[int, ...]:
        """The destination's default rendezvous pair (for tests/metrics)."""
        if self._grid is None or not 0 <= dst < self._grid.n or self._pair[dst, 0] < 0:
            raise RoutingError(f"unknown destination {dst}")
        return tuple(s for s in self._pair[dst].tolist() if s >= 0)

    def active_failover(self, dst: int) -> Optional[int]:
        """Currently adopted failover server for ``dst``, if any."""
        st = self._state.get(dst)
        return st.active if st else None

    def last_cover(self, server: int, dst: int) -> Optional[float]:
        """When ``server`` last covered ``dst`` in a recommendation
        message, or None if it never has: for a default, since the two
        became a default pair; for any other server, since this node
        first adopted it for ``dst`` (nothing is kept otherwise)."""
        slot = self._default_slot(server, dst)
        if slot is None:
            log = self._off_default.get(server)
            return _known(log.covers.get(dst, _NEVER)) if log is not None else None
        return _known(self._cover[dst, slot])

    # ------------------------------------------------------------------
    # Event inputs
    # ------------------------------------------------------------------
    def note_recommendations(self, server: int, listed: np.ndarray, now: float) -> None:
        """Process one recommendation message from ``server``.

        ``listed`` is the receiver's ``(n,)`` bool mask over view
        positions: True where the message carried an entry for that
        destination. It is kept by reference until the clock moves, so
        the caller must not write to it afterwards.
        A destination we expect ``server`` to cover but that is absent
        is an omission — its slot's cover time falls behind the server's
        last message time; whether one counts as remote-failure evidence
        is :meth:`_remote_verdict`'s business.
        """
        self._heard[server] = now
        slots = self._slots_by_server.get(server)
        if slots is not None:
            expected, flat = slots
            self._cover_flat[flat[listed[expected]]] = now
        if now != self._instant:
            self._instant = now
            self._instant_messages = {}
        self._instant_messages.setdefault(server, []).append(listed)
        log = self._off_default.get(server)
        if log is None:
            return
        # An omission older than a cover needs no clearing: only
        # ``omitted > last`` counts (see _remote_verdict).
        for dst in log.adopted_at:
            if listed[dst]:
                log.covers[dst] = now
                continue
            st = self._state.get(dst)
            if st is not None and st.active == server and dst != server:
                log.omitted[dst] = now

    def _adopt(self, server: int, dst: int, now: float) -> None:
        """Start judging ``server`` as ``dst``'s failover from ``now``."""
        log = self._off_default.get(server)
        if log is None:
            log = self._off_default[server] = _OffDefaultLog()
        if now == self._instant and any(
            listed[dst] for listed in self._instant_messages.get(server, ())
        ):
            log.covers[dst] = now  # a message earlier this instant listed it
        log.adopted_at[dst] = now

    # ------------------------------------------------------------------
    # Health evaluation
    # ------------------------------------------------------------------
    def _default_slot(self, server: int, dst: int) -> Optional[int]:
        """Column of ``server`` in ``dst``'s default pair, if it is in it."""
        first, second = self._pair[dst].tolist()
        if server == first:
            return 0
        return 1 if server == second else None

    def _remote_verdict(
        self, last: float, omitted: float, since: float, now: float, adopted: bool
    ) -> bool:
        """The remote-failure rule for one ``(server, dst)`` (see the
        module docstring): an omission newer than the last cover — from
        a default only once it *has* covered — else silence for the
        timeout, counted from the last cover but never from before
        ``since``, when this node began expecting the server's answer."""
        if omitted > last and (adopted or last > _NEVER):
            return True
        return now - max(last, since) > self.config.remote_timeout_s

    def _off_default_failed(self, server: int, dst: int, now: float) -> bool:
        """Remote verdict for a server outside ``dst``'s default pair."""
        log = self._off_default.get(server)
        since = log.adopted_at.get(dst) if log is not None else None
        if since is None:
            return False  # never adopted for dst: nothing to judge by
        return self._remote_verdict(
            log.covers.get(dst, _NEVER), log.omitted.get(dst, _NEVER), since, now, adopted=True
        )

    def _remote_failed(self, server: int, dst: int, now: float) -> bool:
        slot = self._default_slot(server, dst)
        if slot is None:
            return self._off_default_failed(server, dst, now)
        # A server never lists itself: its silence about itself is no omission.
        omitted = self._heard[server] if server != dst else _NEVER
        return self._remote_verdict(
            self._cover[dst, slot], omitted, self._since[dst, slot], now, adopted=False
        )

    def server_failed(self, server: int, dst: int, now: float, up: np.ndarray) -> bool:
        """Is ``server`` (proximally or remotely) failed w.r.t. ``dst``?

        ``server == me`` encodes the same-row/column case where this node
        is itself a rendezvous for the pair: it fails exactly when the
        direct link to the destination is down (no link state flows).
        """
        if server == self.me:
            return not up[dst]
        if not up[server]:
            return True
        return self._remote_failed(server, dst, now)

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(
        self,
        now: float,
        up: np.ndarray,
        sees_alive: SeesAliveFn,
        allow_relay: bool = False,
    ) -> FailoverPoll:
        """Evaluate all destinations; adopt/retire failover servers.

        ``up[x]`` is the link monitor's liveness verdict for the direct
        link to view position ``x``; ``sees_alive(dst)`` is whether any
        rendezvous client's link-state row currently shows ``dst``
        reachable. ``allow_relay`` enables the §4.1 footnote-8 fallback:
        when no failover candidate is directly reachable, one is adopted
        anyway and addressed through a temporary one-hop relay.
        """
        grid = self.grid
        result = FailoverPoll()
        cover, pair, dst_of_slot = self._cover, self._pair, self._dst_of_slot
        absent = pair < 0
        own = pair == self.me
        is_dst = ~absent[:, 0]
        # The link whose liveness decides a slot's proximal health: to
        # the server, or, where this node is itself the rendezvous (same
        # row/column), straight to the destination. An absent slot's -1
        # gathers the last member's values, which ``absent`` overrides.
        link = np.where(own, dst_of_slot, pair)
        proximal = ~up[link] | absent
        # _remote_verdict for every default slot at once. A server never
        # lists itself, so its silence about itself is no omission; own
        # slots gather some other member's time and carry no remote
        # verdict.
        omitted = self._heard[link]
        remote = ((omitted > cover) & (cover > _NEVER) & (pair != dst_of_slot)) | (
            now - np.maximum(cover, self._since) > self.config.remote_timeout_s
        )
        failed = proximal | (remote & ~own)
        both = failed[:, 0] & failed[:, 1] & is_dst
        result.proximal_double_failures = int(
            np.count_nonzero(proximal[:, 0] & proximal[:, 1] & is_dst)
        )
        # Defaults (at least partially) healthy: revert (§4.1 "reverts
        # to its original rendezvous nodes").
        for dst in [d for d in self._state if not both[d]]:
            del self._state[dst]
        double_failed = np.flatnonzero(both).tolist()
        result.double_failures = len(double_failed)
        if not double_failed:
            return result
        link_up = up.tolist()
        for dst in double_failed:
            st = self._state.get(dst)
            if st is None:
                st = self._state[dst] = _DstState()
            if st.active is not None:
                # Relay-reached failovers have no meaningful proximal
                # verdict; judge them on recommendation coverage only.
                active_failed = (
                    not st.via_relay and not link_up[st.active]
                ) or self._off_default_failed(st.active, dst, now)
                if not active_failed:
                    result.extra_servers.add(st.active)
                    if st.via_relay:
                        result.relay_servers.add(st.active)
                    continue
                st.excluded.add(st.active)
                st.active = None
                st.via_relay = False
            if st.suppressed:
                if sees_alive(dst):
                    st.suppressed = False
                    st.excluded.clear()
                    st.attempts = 0
                else:
                    result.suppressed += 1
                    continue
            if st.attempts >= 1 and not sees_alive(dst):
                # §4.1: after the initial failover, confirm the
                # destination is alive before burning through more
                # candidates.
                st.suppressed = True
                result.suppressed += 1
                continue
            defaults = pair[dst].tolist()
            usable = [
                c
                for c in grid.failover_candidates(dst)
                if c != self.me
                and c not in st.excluded
                and c not in defaults
                and not self._off_default_failed(c, dst, now)
            ]
            candidates = [c for c in usable if link_up[c]]
            via_relay = False
            if not candidates and allow_relay:
                # Footnote 8: everything in dst's row+column is behind a
                # broken direct link; pick one anyway and relay to it.
                candidates = usable
                via_relay = True
            if not candidates:
                # Exhausted the row+column; allow a fresh cycle later.
                st.excluded.clear()
                continue
            choice = int(candidates[int(self._rng.integers(len(candidates)))])
            st.active = choice
            st.via_relay = via_relay
            st.attempts += 1
            self._adopt(choice, dst, now)
            if via_relay:
                result.adopted_via_relay.append((dst, choice))
                result.relay_servers.add(choice)
            else:
                result.adopted.append((dst, choice))
            result.extra_servers.add(choice)
        return result
