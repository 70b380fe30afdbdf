"""Test-only oracle: the dict-backed §4.1 failover manager, verbatim.

This is ``repro/core/failover.py`` as it stood before the array-backed
rewrite, kept here (outside ``src/``, not importable from the package)
so ``test_failover_equivalence.py`` can hold the new manager to the old
one step by step. Do not edit the logic below; the original docstring
follows.

Rapid rendezvous failover (§4.1).

Each node tracks, per destination, the health of the two default
rendezvous servers (the grid intersections). A server has *proximally*
failed when the node's own link monitor marks it down; it has *remotely*
failed for a destination when it stops recommending any route to that
destination — detected affirmatively when a recommendation message from
the server arrives without an entry for the destination, with a timeout
backstop for lost messages.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.grid import GridQuorum
from repro.errors import RoutingError

__all__ = ["FailoverConfig", "FailoverPoll", "FailoverManager"]

IsUpFn = Callable[[int], bool]
SeesAliveFn = Callable[[int], bool]


@dataclass(frozen=True)
class FailoverConfig:
    """Timing knobs for failure detection.

    Attributes
    ----------
    remote_timeout_s:
        How long a server may go without covering a destination before it
        is presumed remotely failed (backstop for lost recommendation
        messages; affirmative omissions trigger immediately).
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
        # (server, dst) -> last time server covered dst in a rec message.
        self._last_cover: Dict[Tuple[int, int], float] = {}
        # (server, dst) -> time of last affirmative omission.
        self._omitted_at: Dict[Tuple[int, int], float] = {}
        # (server, dst) -> when we started expecting coverage.
        self._expect_since: Dict[Tuple[int, int], float] = {}
        # dst -> default rendezvous pair.
        self._defaults: Dict[int, Tuple[int, ...]] = {}
        # server -> destinations it is a default for.
        self._dsts_by_server: Dict[int, List[int]] = {}
        self._state: Dict[int, _DstState] = {}

    # ------------------------------------------------------------------
    # Configuration inputs
    # ------------------------------------------------------------------
    def set_grid(self, grid: GridQuorum, now: float) -> None:
        """Install a (new) membership grid; resets all failover state."""
        self._grid = grid
        self._last_cover.clear()
        self._omitted_at.clear()
        self._expect_since.clear()
        self._defaults.clear()
        self._dsts_by_server.clear()
        self._state.clear()
        for dst in grid.members:
            if dst == self.me:
                continue
            pair = grid.default_rendezvous_pair(self.me, dst)
            self._defaults[dst] = pair
            for server in pair:
                self._expect_since[(server, dst)] = now
                self._dsts_by_server.setdefault(server, []).append(dst)

    @property
    def grid(self) -> GridQuorum:
        if self._grid is None:
            raise RoutingError("failover manager has no grid yet")
        return self._grid

    def default_pair(self, dst: int) -> Tuple[int, ...]:
        """The destination's default rendezvous pair (for tests/metrics)."""
        try:
            return self._defaults[dst]
        except KeyError:
            raise RoutingError(f"unknown destination {dst}") from None

    def active_failover(self, dst: int) -> Optional[int]:
        """Currently adopted failover server for ``dst``, if any."""
        st = self._state.get(dst)
        return st.active if st else None

    # ------------------------------------------------------------------
    # Event inputs
    # ------------------------------------------------------------------
    def note_recommendations(
        self, server: int, covered: Set[int], now: float
    ) -> None:
        """Process one recommendation message from ``server``.

        ``covered`` is the set of destinations the message carried entries
        for. Destinations we expect ``server`` to cover but that are
        absent count as affirmative remote-failure evidence (§4.1's
        "observing that k stopped recommending any route to node j").
        """
        for dst in sorted(covered):
            self._last_cover[(server, dst)] = now
            self._omitted_at.pop((server, dst), None)
        expected = list(self._dsts_by_server.get(server, ()))
        st_active = [
            dst for dst, st in self._state.items() if st.active == server
        ]
        for dst in expected + st_active:
            if dst not in covered and dst != server:
                self._omitted_at[(server, dst)] = now

    def note_evidence_of_life(self, dst: int) -> None:
        """A rendezvous client's table showed ``dst`` reachable; resume
        failover attempts for it."""
        st = self._state.get(dst)
        if st and st.suppressed:
            st.suppressed = False
            st.excluded.clear()
            st.attempts = 0

    # ------------------------------------------------------------------
    # Health evaluation
    # ------------------------------------------------------------------
    def _remote_failed(self, server: int, dst: int, now: float) -> bool:
        last = self._last_cover.get((server, dst))
        omitted = self._omitted_at.get((server, dst))
        if omitted is not None and (last is None or omitted > last):
            return True
        reference = self._expect_since.get((server, dst))
        if reference is None:
            return False  # not an expected server; no remote judgment
        anchor = last if last is not None else reference
        return now - anchor > self.config.remote_timeout_s

    def server_failed(self, server: int, dst: int, now: float, is_up: IsUpFn) -> bool:
        """Is ``server`` (proximally or remotely) failed w.r.t. ``dst``?

        ``server == me`` encodes the same-row/column case where this node
        is itself a rendezvous for the pair: it fails exactly when the
        direct link to the destination is down (no link state flows).
        """
        if server == self.me:
            return not is_up(dst)
        if not is_up(server):
            return True
        return self._remote_failed(server, dst, now)

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(
        self,
        now: float,
        is_up: IsUpFn,
        sees_alive: SeesAliveFn,
        allow_relay: bool = False,
    ) -> FailoverPoll:
        """Evaluate all destinations; adopt/retire failover servers.

        ``is_up(x)`` is the link monitor's liveness verdict for the direct
        link to ``x``; ``sees_alive(dst)`` is whether any rendezvous
        client's link-state row currently shows ``dst`` reachable.
        ``allow_relay`` enables the §4.1 footnote-8 fallback: when no
        failover candidate is directly reachable, one is adopted anyway
        and addressed through a temporary one-hop relay.
        """
        grid = self.grid
        result = FailoverPoll()
        for dst, pair in self._defaults.items():
            proximal_both = all(
                (not is_up(dst)) if s == self.me else (not is_up(s)) for s in pair
            )
            if proximal_both:
                result.proximal_double_failures += 1
            both_failed = all(
                self.server_failed(s, dst, now, is_up) for s in pair
            )
            if not both_failed:
                # Defaults (at least partially) healthy: revert (§4.1
                # "reverts to its original rendezvous nodes").
                self._state.pop(dst, None)
                continue
            result.double_failures += 1
            st = self._state.setdefault(dst, _DstState())
            if st.active is not None:
                # Relay-reached failovers have no meaningful proximal
                # verdict; judge them on recommendation coverage only.
                active_failed = (
                    self._remote_failed(st.active, dst, now)
                    if st.via_relay
                    else self.server_failed(st.active, dst, now, is_up)
                )
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
            usable = [
                c
                for c in grid.failover_candidates(dst)
                if c != self.me
                and c not in st.excluded
                and c not in pair
                and not self._remote_failed(c, dst, now)
            ]
            candidates = [c for c in usable if is_up(c)]
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
            self._expect_since[(choice, dst)] = now
            if via_relay:
                result.adopted_via_relay.append((dst, choice))
                result.relay_servers.add(choice)
            else:
                result.adopted.append((dst, choice))
            result.extra_servers.add(choice)
        return result
