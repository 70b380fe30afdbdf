"""The paper's two-round grid-quorum router (§3-§5).

Every routing interval (15 s) a node:

1. **Round 1** — sends its link-state row to its rendezvous servers (its
   grid row + column, plus any failover servers currently adopted);
2. **Round 2** — acting as a rendezvous server, computes the best one-hop
   path between every pair of its rendezvous clients from the client rows
   received within the last 3 routing intervals (§6.2.2), and sends each
   client one recommendation message covering its other clients;
3. evaluates the §4.1 failover state: proximal failures from the link
   monitor, remote failures when a rendezvous that *was* recommending a
   destination stops doing so (an omission after a cover, or silence for
   the remote timeout — a rendezvous still waiting for its clients' first
   rows has not failed); adopts failover servers for destinations whose
   both default rendezvous have failed, with death suppression and
   reversion.

Route lookups prefer fresh rendezvous recommendations; when they are
stale or the recommended hop is down, the node falls back to the §4.2
*redundant link-state* path: it already holds the full tables of its
~2 sqrt(n) clients, so it evaluates one-hop routes through them directly.
One kernel (``QuorumRouter._routes``) answers both route queries, one
destination or all of them.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.failover import FailoverManager, FailoverPoll
from repro.core.grid import GridQuorum
from repro.net.packet import LinkStateMessage, Message, RecommendationMessage
from repro.overlay.config import RouterKind
from repro.overlay.linkstate import SparseLinkStateTable
from repro.overlay.membership import MembershipView
from repro.overlay.router_base import (
    SOURCE_DIRECT,
    SOURCE_RECOMMENDATION,
    SOURCE_REDUNDANT,
    Route,
    RouterBase,
)
from repro.overlay.stats import CounterSet

__all__ = ["QuorumRouter"]


class _FailoverStream:
    """A router's failover random stream, made on its first draw.

    Building a ``np.random.Generator`` costs about as much as the rest
    of the failover manager's view install, and a node that never adopts
    a failover server (every node of a lossless static overlay) never
    draws. The first draw builds the Generator the router would have had
    from the same seed, so the draws do not change.
    """

    __slots__ = ("_seed", "_generator")

    def __init__(self, seed: int):
        self._seed = seed
        self._generator: Optional[np.random.Generator] = None

    def integers(self, high: int) -> int:
        if self._generator is None:
            self._generator = np.random.default_rng(self._seed)
        return self._generator.integers(high)


class QuorumRouter(RouterBase):
    """Two-round quorum routing with rapid rendezvous failover.

    Route state is per destination, indexed by view position, and a
    router holds only the arrays its configuration reads — every
    recommendation message writes each array that exists, ~2 sqrt(n)
    messages per routing interval:

    * always ``route_hop`` / ``route_time`` / ``route_server``: the
      recommended one-hop, when it arrived, and which rendezvous sent
      it. Route queries read the first two; the third tells a
      recommendation that displaces another rendezvous' from one that
      renews its own sender's. Hops and servers are view positions
      (``-1``: none), so they are int32; times are float64 sim seconds.
    * ``route_hop2`` / ``route_time2`` / ``route_server2`` with
      ``config.verify_recommendations`` only: the displaced rendezvous'
      opinion, which the §7 cross-validation prices against the
      installed one. Without the flag nothing reads them.

    An array that does not exist is ``None`` (a default router holds
    three ``(n,)`` arrays, not six), and :meth:`on_view_delta` remaps
    whichever exist. The configuration is frozen, so which they are
    never changes in a router's life.
    """

    kind = RouterKind.QUORUM

    __slots__ = (
        "grid",
        "counters",
        "failover",
        "_rng",
        "_extra_servers",
        "route_hop",
        "route_time",
        "route_server",
        "route_hop2",
        "route_time2",
        "route_server2",
    )

    # ------------------------------------------------------------------
    # View handling
    # ------------------------------------------------------------------
    def _rebuild_for_view(self, view: MembershipView) -> None:
        n = view.n
        # The grid is over view *indices* (0..n-1): members are sorted
        # and filled row-major, so index order == grid order, and every
        # router of a view size shares that size's grid.
        self.grid = GridQuorum.of_size(n)
        # A quorum node is sent only its ~2 sqrt(n) clients' rows:
        # O(n^1.5) link state per node instead of O(n^2).
        self.table = SparseLinkStateTable(n)
        self.counters = CounterSet()

        if not hasattr(self, "_rng"):
            # Failover choices must be node-local randomness; derive a
            # stream from the node id so runs stay deterministic.
            self._rng = _FailoverStream(0x5EED ^ (self.me * 2654435761 % 2**31))
        self.failover = FailoverManager(
            self.me_idx, self._rng, self.config.remote_timeout_s()
        )
        self.failover.set_grid(self.grid, self.sim.now)
        self._extra_servers: Set[int] = set()

        # Route state, indexed by view position (see the class docstring
        # for which arrays exist).
        self.route_hop = np.full(n, -1, dtype=np.int32)
        self.route_time = np.full(n, -np.inf)
        self.route_server = np.full(n, -1, dtype=np.int32)
        self.route_hop2 = self.route_time2 = self.route_server2 = None
        if self.config.verify_recommendations:
            self.route_hop2 = np.full(n, -1, dtype=np.int32)
            self.route_time2 = np.full(n, -np.inf)
            self.route_server2 = np.full(n, -1, dtype=np.int32)
        self._refresh_own_row()

    def on_view_delta(self, old_to_new: np.ndarray) -> None:
        """Carry routing state to a view with another member set.

        The grid (over view indices ``0..n-1``) is the new size's shared
        one, and the link-state table and route arrays are
        *remapped* from old view positions to new ones, so routing state
        learned about surviving members is preserved across the view
        change instead of being thrown away. So is the failover evidence
        about every default ``(server, destination)`` pair that is still
        one under the new grid; a pair the new grid creates starts blank
        — no omission counts until its first cover, since a joiner's
        rendezvous cannot hold its row for the first interval — and
        adopted failover servers are dropped (re-adopted on the next
        poll while both defaults are still failed).
        """
        n = self.view.n
        survivors_old = np.nonzero(old_to_new >= 0)[0]
        survivors_new = old_to_new[survivors_old]
        self.grid = GridQuorum.of_size(n)

        # Rows past the round-2 memory are never gathered again: drop them.
        self.table = self.table.remap(
            survivors_old, survivors_new, n, self.sim.now, self.config.rec_memory_s()
        )

        def moved(arr: Optional[np.ndarray], refs: bool) -> Optional[np.ndarray]:
            """A route array over the new view positions; with ``refs``
            its entries are view positions themselves and follow their
            members (-1 when the referent departed)."""
            if arr is None:
                return None
            out = np.full(n, -1 if refs else -np.inf, dtype=arr.dtype)
            kept = arr[survivors_old]
            if refs:
                held = kept >= 0
                kept[held] = old_to_new[kept[held]]
            out[survivors_new] = kept
            return out

        self.route_hop = moved(self.route_hop, refs=True)
        self.route_time = moved(self.route_time, refs=False)
        self.route_server = moved(self.route_server, refs=True)
        self.route_hop2 = moved(self.route_hop2, refs=True)
        self.route_time2 = moved(self.route_time2, refs=False)
        self.route_server2 = moved(self.route_server2, refs=True)
        # A route whose one-hop departed is gone, not merely stale.
        dead = self.route_hop < 0
        self.route_time[dead] = -np.inf
        if self.route_hop2 is not None:
            self.route_time2[self.route_hop2 < 0] = -np.inf

        previous = self.failover
        self.failover = FailoverManager(
            self.me_idx, self._rng, self.config.remote_timeout_s()
        )
        self.failover.set_grid(self.grid, self.sim.now)
        self.failover.carry_over(previous, old_to_new)
        self._extra_servers = set()
        self._refresh_own_row()

    def _links_up_view_many(self, view_indices: np.ndarray) -> np.ndarray:
        """Monitor liveness verdict per member at ``view_indices``."""
        return self.monitor.alive[self.view.member_ids[view_indices]]

    # ------------------------------------------------------------------
    # Protocol: periodic tick
    # ------------------------------------------------------------------
    def tick(self) -> None:
        self._require_view()
        self._refresh_own_row()
        self._evaluate_failover()
        self._send_linkstate(self._server_indices())
        self._send_recommendations()

    def _server_indices(self) -> List[int]:
        """Default rendezvous servers plus adopted failover servers."""
        base = list(self.grid.servers(self.me_idx, include_self=False))
        return base + sorted(self._extra_servers.difference(base))

    def _send_linkstate(self, server_indices: List[int]) -> None:
        members = self.view.member_ids[server_indices]
        self.transport.send_many(self.me, members, self._own_linkstate())

    def _fresh_client_indices(self) -> np.ndarray:
        """View indices of clients whose rows are usable (≤ 3r old)."""
        fresh = self.table.fresh_rows(self.sim.now, self.config.rec_memory_s())
        return fresh[fresh != self.me_idx]

    def _send_recommendations(self) -> None:
        """Round 2: best one-hop per pair of fresh clients (§3).

        A destination is only covered while this rendezvous both holds a
        fresh row for it *and* believes its own link to it is up — the
        latter is what turns a remote link failure into a prompt
        recommendation omission (§4.1 failure detection).
        """
        view = self._require_view()
        fresh = self._fresh_client_indices()
        if fresh.size < 2:
            return
        # Coverage filter: destinations this node can reach directly are
        # recommendable; unreachable ones are omitted (the §4.1 remote-
        # failure signal), and are not sent recommendations either.
        covered = fresh[self._links_up_view_many(fresh)]
        if covered.size < 2:
            return
        covered_ids = covered.astype(np.int64)
        pair_hop, pair_ok = self._best_one_hops(self.table.cost_matrix(covered_ids))
        table, keep = self._entry_table(covered_ids, pair_hop, pair_ok)
        # One (address, message) per client, put on the wire together.
        # The messages are consecutive column ranges of one (2, total)
        # entry array, so each message's destination and hop columns are
        # contiguous.
        entries = np.compress(keep.reshape(-1), table.reshape(2, -1), axis=1)
        ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
        version = self.wire_view_version()
        out: List[Tuple[int, Message]] = []
        start = 0
        for a_idx, end in zip(covered_ids.tolist(), ends):
            if end > start:
                msg = RecommendationMessage(
                    origin=self.me,
                    entries=entries[:, start:end].T,
                    view_version=version,
                )
                out.append((view.members[a_idx], msg))
            start = end
        if out:
            dsts, msgs = zip(*out)
            self.transport.send_many(self.me, dsts, msgs)

    @staticmethod
    def _best_one_hops(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The min-plus kernel of round 2 over ``m`` clients' cost rows.

        Returns ``(pair_hop, pair_ok)``, both ``(m, m)``: ``pair_hop[a, b]``
        is the first ``h`` minimising ``rows[a, h] + rows[b, h]`` (0 on the
        diagonal) and ``pair_ok[a, b]`` whether that minimum is finite.

        The best one-hop between clients a and b is symmetric (IEEE
        addition commutes, so argmin over row_a + row_b is identical
        either way): each unordered pair is computed once — this halves
        the dominant min-plus work of the whole protocol — into the
        upper triangle, and mirrored when the loop is done. Every row's
        sums go into one scratch buffer and their argmin straight into
        ``pair_hop``. Rows are in :class:`LinkStateRow`'s normal form
        (entries ``>= 0`` or ``inf``), so a minimum is finite exactly
        when some ``h`` is finite in both rows: one boolean product of
        the finite masks, without the minima themselves.
        """
        m, n = rows.shape
        pair_hop = np.zeros((m, m), dtype=np.int64)
        sums = np.empty((m - 1, n))
        for i in range(m - 1):
            np.add(rows[i], rows[i + 1 :], out=sums[: m - 1 - i]).argmin(
                axis=1, out=pair_hop[i, i + 1 :]
            )
        pair_hop += pair_hop.T
        finite = np.isfinite(rows)
        return pair_hop, finite @ finite.T

    @staticmethod
    def _entry_table(
        covered_ids: np.ndarray, best_h: np.ndarray, finite: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Recommendation entries for every client at once.

        ``best_h[a, b]`` / ``finite[a, b]`` are the best one-hop from
        ``covered_ids[a]`` to ``covered_ids[b]`` and whether it exists.
        Returns the ``(2, m, m)`` table — a destination plane and a
        one-hop plane — and the mask of the entries to send:
        ``np.compress(keep[a], table[:, a], axis=1).T`` is client ``a``'s
        message.
        """
        me = covered_ids[:, None]
        table = np.empty((2,) + best_h.shape, dtype=np.int64)
        table[0] = covered_ids
        table[1] = np.where(
            (best_h == me) | (best_h == covered_ids),
            covered_ids,  # canonical "direct"
            best_h,
        )
        return table, finite & (covered_ids != me)

    # ------------------------------------------------------------------
    # Protocol: message handlers
    # ------------------------------------------------------------------
    def on_linkstate(self, msg: LinkStateMessage, src: int) -> None:
        src_idx = self._require_view().position(src)
        if src_idx < 0 or msg.view_version != self.wire_view_version():
            self._note_dropped_message(msg.view_version)
            return
        self.table.update_row(src_idx, msg.row, self.sim.now)

    def on_recommendation(self, msg: RecommendationMessage, src: int) -> None:
        """Install one rendezvous' round-2 entries and note its §4.1
        evidence, in a fixed handful of array operations.

        One unsigned max validates both columns, and one ``(n,)`` bool
        mask of the listed destinations finds an entry about this node
        (dropped) and a repeated destination (its last entry wins); the
        same mask is the failover manager's cover / omission evidence.
        One write per route array then installs every message. Nothing
        of ``msg`` is kept.
        """
        view = self._require_view()
        src_idx = view.position(src)
        if src_idx < 0 or msg.view_version != self.wire_view_version():
            self._note_dropped_message(msg.view_version)
            return
        now = self.sim.now
        n = view.n
        me = self.me_idx
        ent = msg.entries
        dsts, hops = ent[:, 0], ent[:, 1]
        # One range check over both columns: a negative position reads
        # >= 2**63 as unsigned.
        if len(ent) and ent.view(np.uint64).max() >= n:
            # Only a non-standard sender names a position outside the
            # view: drop those entries, apply the rest.
            valid = (dsts >= 0) & (dsts < n) & (hops >= 0) & (hops < n)
            dsts, hops = dsts[valid], hops[valid]
        # Even an entry too stale to install is listed, i.e. coverage:
        # the rendezvous demonstrably recommends this destination.
        listed = np.zeros(n, dtype=bool)
        listed[dsts] = True
        if listed[me]:
            # Only a non-standard sender names the receiver itself.
            listed[me] = False
            valid = dsts != me
            dsts, hops = dsts[valid], hops[valid]
        if np.count_nonzero(listed) != len(dsts):
            # A repeated destination (only a non-standard sender sends
            # one): as applied one at a time, the last entry wins — the
            # last of each run of equal destinations in stable order.
            order = np.argsort(dsts, kind="stable")
            run_end = np.ones(len(order), dtype=bool)
            sorted_dsts = dsts[order]
            run_end[:-1] = sorted_dsts[1:] != sorted_dsts[:-1]
            last = order[run_end]
            dsts, hops = dsts[last], hops[last]
        # Distinct destinations, in any order: every entry writes its own
        # slots, so one fancy-indexed write per array is the sequential
        # result.
        if self.route_hop2 is not None:
            # Keep the displaced rendezvous' opinion as the secondary
            # candidate for cross-validation.
            prev_server = self.route_server[dsts]
            displaced = (prev_server >= 0) & (prev_server != src_idx)
            dd = dsts[displaced]
            self.route_hop2[dd] = self.route_hop[dd]
            self.route_time2[dd] = self.route_time[dd]
            self.route_server2[dd] = prev_server[displaced]
        self.route_time[dsts] = now
        self.route_hop[dsts] = hops
        self.route_server[dsts] = src_idx
        self.failover.note_recommendations(src_idx, listed, now)

    # ------------------------------------------------------------------
    # Failover (§4.1)
    # ------------------------------------------------------------------
    def _sees_alive(self, dst_idx: int) -> bool:
        return self.table.sees_alive(
            dst_idx, self.sim.now, self.config.rec_memory_s()
        )

    def _evaluate_failover(self) -> FailoverPoll:
        poll = self.failover.poll(
            self.sim.now, self.monitor.alive[self.view.member_ids], self._sees_alive
        )
        self._extra_servers = set(poll.extra_servers)
        newly_adopted = sorted({s for _, s in poll.adopted})
        if newly_adopted:
            # Send link state to newly adopted failover servers right
            # away (scenario 2's "immediately selects ... and sends").
            self.counters.incr("failover_adoptions", len(poll.adopted))
            self._refresh_own_row()
            self._send_linkstate(newly_adopted)
        if poll.suppressed:
            self.counters.incr("failover_suppressed_polls", poll.suppressed)
        return poll

    def on_link_down(self, j: int) -> None:
        """Immediate failover evaluation on a proximal link failure."""
        if self.view is not None:
            self.counters.incr("link_down_events")
            self._evaluate_failover()

    def on_link_up(self, j: int) -> None:
        """A link came back: price it at once. Direct routes are costed
        from this node's own row, which otherwise keeps the link at
        ``inf`` until the next tick — up to a routing interval during
        which the one route a joiner's neighbour needs reads unusable."""
        if self.view is not None:
            self._refresh_own_row()
            self._evaluate_failover()

    def double_failure_count(self) -> int:
        """Destinations whose both default rendezvous are currently
        failed (Figure 11's per-interval quantity), as the paper measures
        it: "failures *to* both of the destination's default rendezvous
        nodes", this node's own links to them."""
        return self._evaluate_failover().proximal_double_failures

    # ------------------------------------------------------------------
    # Route queries
    # ------------------------------------------------------------------
    def _routes(
        self, dsts: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The §4.2 lookup order over the distinct view positions ``dsts``
        (none of them this node's); ``None`` means every position, this
        node's own left to the caller.

        Returns ``(hops, usable, from_rec)``, one entry per destination,
        from the first of these that applies (``hops == -1``: none):

        1. a fresh recommendation whose hop is the destination itself or
           a link that is up — with ``verify_recommendations`` the hop
           the §7 cross-validation keeps (:meth:`_cross_validate`);
        2. the redundant path: the best one-hop through a fresh client
           whose row this node holds;
        3. the direct path, when its link is up.

        Each step is a few numpy operations over all the destinations
        (only the §7 pricing runs per conflict), and a destination's
        answer reads nothing of another's: any subset reads the same as
        every position.
        """
        n = self.view.n
        me = self.me_idx
        own = self.table.cost_row(me)
        link_up = self.monitor.alive[self.view.member_ids]
        # Every position reads the route arrays themselves, no gather.
        targets = np.arange(n) if dsts is None else dsts
        rec_hop, rec_time = self.route_hop, self.route_time
        if dsts is not None:
            rec_hop, rec_time = rec_hop[dsts], rec_time[dsts]
        hops = np.full(len(targets), -1, dtype=np.int64)
        usable = np.zeros(len(targets), dtype=bool)

        # 1. Fresh recommendations whose hop is the destination itself
        #    or a currently-up link.
        # The stored hops are int32; widened once, every comparison and
        # gather below runs on index-width integers without a cast.
        rec_hop = rec_hop.astype(np.intp)
        rec_fresh = ((self.sim.now - rec_time) <= 2.0 * self.routing_interval_s) & (rec_hop >= 0)
        if dsts is None:
            rec_fresh[me] = False
        if self.config.verify_recommendations:
            self._cross_validate(rec_hop, rec_fresh, targets, own, link_up)
        hop_direct = rec_fresh & (rec_hop == targets)
        hop_up = rec_fresh & ~hop_direct
        idxs = np.nonzero(hop_up)[0]
        hop_up[idxs] = link_up[rec_hop[idxs]]
        from_rec = hop_direct | hop_up
        #    _estimate_cost adds the hop's row entry to the first leg only
        #    where it is finite, so the estimate is finite exactly where
        #    the first leg is.
        rd = np.nonzero(from_rec)[0]
        hops[rd] = rec_hop[rd]
        usable[rd] = np.isfinite(own[hops[rd]])

        # 2. §4.2 redundant fallback for the rest.
        rem = np.nonzero(~from_rec)[0]
        if dsts is None:
            rem = rem[rem != me]
        if rem.size:
            fresh = self._fresh_client_indices()
            if fresh.size:
                rem_dst = targets[rem]
                rows = self.table.cost_matrix(fresh)
                via = own[fresh][:, None] + rows[:, rem_dst]  # (k, r)
                # A client cannot be the one-hop to itself.
                col_of = np.full(n, -1, dtype=np.int64)
                col_of[rem_dst] = np.arange(rem.size)
                fc = col_of[fresh]
                have = np.nonzero(fc >= 0)[0]
                via[have, fc[have]] = np.inf
                best_pos = np.argmin(via, axis=0)
                best = via[best_pos, np.arange(rem.size)]
                okr = np.isfinite(best)
                hops[rem[okr]] = fresh[best_pos[okr]]
                usable[rem[okr]] = True
                rem = rem[~okr]
            # 3. Bare direct path.
            if rem.size:
                direct = rem[link_up[targets[rem]]]
                hops[direct] = targets[direct]
                usable[direct] = np.isfinite(own[hops[direct]])
        return hops, usable, from_rec

    def _cross_validate(
        self,
        rec_hop: np.ndarray,
        rec_fresh: np.ndarray,
        targets: np.ndarray,
        own: np.ndarray,
        link_up: np.ndarray,
    ) -> None:
        """§7 defense: where two rendezvous' fresh recommendations
        disagree, keep the cheaper hop in ``rec_hop`` (in place).

        The grid quorum gives every pair two rendezvous; the node
        evaluates both candidate hops against the link-state rows it
        already holds (its own measurements plus its ~2√n clients'
        tables). A single lying rendezvous therefore cannot redirect
        traffic: its self-serving hop is priced by *its own* announced
        link state, which honest measurement keeps truthful. A secondary
        whose link is down never overrides. Each disagreement counts as a
        ``rec_conflicts``, each override as a ``rec_conflicts_overridden``.
        """
        secondary = self.route_hop2[targets]
        conflicts = np.flatnonzero(
            rec_fresh
            & (secondary >= 0)
            & ((self.sim.now - self.route_time2[targets]) <= 2.0 * self.routing_interval_s)
            & (secondary != rec_hop)
        ).tolist()
        if not conflicts:
            return
        self.counters.incr("rec_conflicts", len(conflicts))
        overridden = 0
        for p in conflicts:
            dst, hop2 = int(targets[p]), int(secondary[p])
            if hop2 != dst and not link_up[hop2]:
                continue
            if self._estimate_cost(own, hop2, dst) < self._estimate_cost(own, int(rec_hop[p]), dst):
                rec_hop[p] = hop2
                overridden += 1
        if overridden:
            self.counters.incr("rec_conflicts_overridden", overridden)

    def route_to(self, dst_idx: int) -> Route:
        """:meth:`route_vector`'s route to ``dst_idx``, priced and
        labelled with where it came from."""
        self._require_view()
        if dst_idx == self.me_idx:
            return Route(dst=dst_idx, hop=dst_idx, cost_ms=0.0, source=SOURCE_DIRECT, age_s=0.0)
        hops, _, from_rec = self._routes(np.array([dst_idx]))
        hop = int(hops[0])
        own = self.table.cost_row(self.me_idx)
        if from_rec[0]:
            cost = self._estimate_cost(own, hop, dst_idx)
            age = self.sim.now - float(self.route_time[dst_idx])
            return Route(dst=dst_idx, hop=hop, cost_ms=cost, source=SOURCE_RECOMMENDATION, age_s=age)
        if hop < 0:
            return Route(dst=dst_idx, hop=-1, cost_ms=np.inf, source=SOURCE_DIRECT, age_s=np.inf)
        if hop == dst_idx:
            return Route(dst=dst_idx, hop=hop, cost_ms=float(own[hop]), source=SOURCE_DIRECT, age_s=0.0)
        # The redundant path's cost, as step 2 of _routes summed it.
        cost = float(own[hop] + self.table.cost_row(hop)[dst_idx])
        return Route(dst=dst_idx, hop=hop, cost_ms=cost, source=SOURCE_REDUNDANT, age_s=0.0)

    def route_vector(self) -> Tuple[np.ndarray, np.ndarray]:
        """All destinations' routes in one pass (see :class:`RouterBase`):
        :meth:`_routes` over every position, this node reaching itself."""
        self._require_view()
        hops, usable, _ = self._routes()
        hops[self.me_idx] = self.me_idx
        usable[self.me_idx] = True
        return hops, usable

    def _estimate_cost(self, own: np.ndarray, hop: int, dst_idx: int) -> float:
        """Best local estimate of the recommended path's cost.

        Recommendations carry no cost on the wire (4 bytes/entry, §5), so
        the node combines its own first-leg measurement with the hop's
        row if it happens to hold it.
        """
        if hop == dst_idx:
            return float(own[dst_idx])
        first_leg = float(own[hop])
        hop_age = self.table.row_age(hop, self.sim.now)
        if hop_age <= self.config.rec_memory_s():
            second = float(self.table.cost_row(hop)[dst_idx])
        else:
            second = np.nan  # unknown; cost is a lower-bound estimate
        return first_leg + (second if np.isfinite(second) else 0.0)

    def last_rec_times(self) -> np.ndarray:
        """Per-destination time of the last recommendation (Figure 12)."""
        return self.route_time.copy()
