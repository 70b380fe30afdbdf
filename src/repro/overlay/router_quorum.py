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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.failover import FailoverConfig, FailoverManager, FailoverPoll
from repro.core.grid import GridQuorum
from repro.net.packet import (
    LinkStateMessage,
    Message,
    RecommendationMessage,
    RelayEnvelope,
)
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
      renews its own sender's.
    * ``route_sent_at`` with ``config.timestamped_recommendations``
      only: when the installed hop was computed, which the footnote-11
      test compares an arriving message with. Without the flag nothing
      reads it.
    * ``route_hop2`` / ``route_time2`` / ``route_server2`` with
      ``config.verify_recommendations`` only: the displaced rendezvous'
      opinion, which the §7 cross-validation prices against the
      installed one. Without the flag nothing reads them.

    An array that does not exist is ``None`` (a default router holds
    three ``(n,)`` arrays, not seven), and :meth:`on_view_delta` remaps
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
        "_relay_servers",
        "_reply_relay",
        "_last_double_failures",
        "route_hop",
        "route_time",
        "route_sent_at",
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
            self._rng = np.random.default_rng(0x5EED ^ (self.me * 2654435761 % 2**31))
        self.failover = FailoverManager(
            self.me_idx,
            self._rng,
            FailoverConfig(remote_timeout_s=self.config.remote_timeout_s()),
        )
        self.failover.set_grid(self.grid, self.sim.now)
        self._extra_servers: Set[int] = set()
        self._relay_servers: Set[int] = set()
        #: client view-index -> relay node view-index for replies
        #: (§4.1 footnote 8).
        self._reply_relay: Dict[int, int] = {}
        self._last_double_failures = 0

        # Route state, indexed by view position (see the class docstring
        # for which arrays exist).
        self.route_hop = np.full(n, -1, dtype=np.int64)
        self.route_time = np.full(n, -np.inf)
        self.route_server = np.full(n, -1, dtype=np.int64)
        self.route_sent_at = self.route_hop2 = None
        self.route_time2 = self.route_server2 = None
        if self.config.timestamped_recommendations:
            self.route_sent_at = np.full(n, -np.inf)
        if self.config.verify_recommendations:
            self.route_hop2 = np.full(n, -1, dtype=np.int64)
            self.route_time2 = np.full(n, -np.inf)
            self.route_server2 = np.full(n, -1, dtype=np.int64)
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
        self.route_sent_at = moved(self.route_sent_at, refs=False)
        self.route_hop2 = moved(self.route_hop2, refs=True)
        self.route_time2 = moved(self.route_time2, refs=False)
        self.route_server2 = moved(self.route_server2, refs=True)
        # A route whose one-hop departed is gone, not merely stale.
        dead = self.route_hop < 0
        self.route_time[dead] = -np.inf
        if self.route_sent_at is not None:
            self.route_sent_at[dead] = -np.inf
        if self.route_hop2 is not None:
            self.route_time2[self.route_hop2 < 0] = -np.inf

        previous = self.failover
        self.failover = FailoverManager(
            self.me_idx,
            self._rng,
            FailoverConfig(remote_timeout_s=self.config.remote_timeout_s()),
        )
        self.failover.set_grid(self.grid, self.sim.now)
        self.failover.carry_over(previous, old_to_new)
        self._extra_servers = set()
        self._relay_servers = set()
        self._reply_relay = {
            int(old_to_new[c]): int(old_to_new[r])
            for c, r in self._reply_relay.items()
            if old_to_new[c] >= 0 and old_to_new[r] >= 0
        }
        self._refresh_own_row()

    def _cost_row(self, idx: int) -> np.ndarray:
        """A stored row as additive costs under the configured metric.

        The shared row itself, not a copy: read-only.
        """
        return self.table.cost_row(
            idx, self.config.path_metric, self.config.loss_penalty_ms
        )

    def _links_up_view_many(self, view_indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`link_up_view` over view indices."""
        return self.monitor.alive[self._member_ids[view_indices]]

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
        msg = self._own_linkstate()
        members = self._member_ids[server_indices]
        if not (self._relay_servers and self.config.relay_failover):
            self.transport.send_many(self.me, members, msg)
            return
        # Footnote 8: servers behind a broken direct link get the row
        # through a temporary one-hop, in their place in the send order.
        dsts: List[int] = []
        msgs: List[Message] = []
        for idx, member in zip(server_indices, members.tolist()):
            out: Message = msg
            if idx in self._relay_servers and not self.link_up_view(idx):
                relayed = self._relay_datagram(idx, msg)
                if relayed is None:
                    continue
                member, out = relayed
            dsts.append(member)
            msgs.append(out)
        self.transport.send_many(self.me, dsts, msgs)

    def _pick_relay(self, server_idx: int) -> Optional[int]:
        """A reachable client whose table shows the server alive —
        the footnote-8 temporary one-hop. One min-plus over the held
        rows instead of a per-client Python loop."""
        fresh = self._fresh_client_indices()
        if fresh.size == 0:
            return None
        cand = fresh[(fresh != server_idx) & self._links_up_view_many(fresh)]
        if cand.size == 0:
            return None
        own = self.table.effective_latency(self.me_idx)
        cost = own[cand] + self.table.latency_leg(cand, server_idx)
        pos = int(np.argmin(cost))
        if not np.isfinite(cost[pos]):
            return None
        return int(cand[pos])

    def _relay_datagram(
        self, server_idx: int, msg: LinkStateMessage
    ) -> Optional[Tuple[int, RelayEnvelope]]:
        """``(relay member, envelope)`` carrying ``msg`` around the broken
        link to ``server_idx``, or None when no client can relay."""
        view = self._require_view()
        relay_idx = self._pick_relay(server_idx)
        if relay_idx is None:
            self.counters.incr("relay_no_intermediate")
            return None
        relayed = LinkStateMessage(
            origin=msg.origin,
            row=msg.row,
            view_version=msg.view_version,
            sent_at=msg.sent_at,
            relay_via=view.members[relay_idx],
        )
        envelope = RelayEnvelope(
            origin=self.me, inner=relayed, target=view.members[server_idx]
        )
        self.counters.incr("relay_linkstate_sent")
        return view.members[relay_idx], envelope

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
        # failure signal). Clients behind a relay (footnote 8) are not
        # recommendable as destinations but still *receive* messages.
        reachable = self._links_up_view_many(fresh)
        covered = fresh[reachable]
        relay_clients = [
            int(c)
            for c in fresh[~reachable]
            if int(c) in self._reply_relay and self.config.relay_failover
        ]
        if covered.size < 1 or covered.size + len(relay_clients) < 2:
            return
        metric = self.config.path_metric
        penalty = self.config.loss_penalty_ms
        covered_ids = covered.astype(np.int64)
        covered_rows = self.table.cost_matrix(covered_ids, metric, penalty)
        now = self.sim.now
        # The best one-hop between clients a and b is symmetric (IEEE
        # addition commutes, so argmin over row_a + row_b is identical
        # either way): compute each unordered pair once — this halves
        # the dominant min-plus work of the whole protocol — into the
        # upper triangle, and mirror it when the loop is done.
        m = covered_ids.size
        pair_hop = np.zeros((m, m), dtype=np.int64)
        pair_cost = np.full((m, m), np.inf)
        positions = np.arange(m)
        for i in range(m - 1):
            totals = covered_rows[i] + covered_rows[i + 1 :]
            best_h = totals.argmin(axis=1)
            pair_hop[i, i + 1 :] = best_h
            pair_cost[i, i + 1 :] = totals[positions[: m - 1 - i], best_h]
        pair_hop += pair_hop.T
        pair_ok = np.isfinite(pair_cost)
        pair_ok |= pair_ok.T
        table, keep = self._entry_table(covered_ids, covered_ids, pair_hop, pair_ok)
        # One (address, message) per client, put on the wire together.
        # The messages are consecutive column ranges of one (2, total)
        # entry array, so each message's destination and hop columns are
        # contiguous.
        entries = np.compress(keep.reshape(-1), table.reshape(2, -1), axis=1)
        ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
        version = self.wire_view_version()
        timestamped = self.config.timestamped_recommendations
        out: List[Tuple[int, Message]] = []

        def add(a_idx: int, columns: np.ndarray) -> None:
            if columns.shape[1]:
                msg = RecommendationMessage(
                    origin=self.me,
                    entries=columns.T,
                    view_version=version,
                    sent_at=now,
                    timestamped=timestamped,
                )
                self._add_rec_datagram(out, view, a_idx, msg)

        start = 0
        for a_idx, end in zip(covered_ids.tolist(), ends):
            add(a_idx, entries[:, start:end])
            start = end
        for a_idx in relay_clients:
            # Relayed clients are not covered destinations, so their
            # pairs are not in the symmetric table; compute full-width.
            a_row = self.table.cost_row(a_idx, metric, penalty)
            totals = a_row[None, :] + covered_rows
            best_h = np.argmin(totals, axis=1)
            best_cost = totals[positions, best_h]
            table, keep = self._entry_table(
                np.array([a_idx]), covered_ids, best_h[None, :], np.isfinite(best_cost)[None, :]
            )
            add(a_idx, np.compress(keep[0], table[:, 0], axis=1))
        if out:
            dsts, msgs = zip(*out)
            self.transport.send_many(self.me, dsts, msgs)

    @staticmethod
    def _entry_table(
        recipients: np.ndarray,
        covered_ids: np.ndarray,
        best_h: np.ndarray,
        finite: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Recommendation entries for every recipient at once.

        ``best_h[a, b]`` / ``finite[a, b]`` are the best one-hop from
        ``recipients[a]`` to ``covered_ids[b]`` and whether it exists.
        Returns the ``(2, recipients, covered)`` table — a destination
        plane and a one-hop plane — and the mask of the entries to send:
        ``np.compress(keep[a], table[:, a], axis=1).T`` is recipient
        ``a``'s message.
        """
        me = recipients[:, None]
        table = np.empty((2,) + best_h.shape, dtype=np.int64)
        table[0] = covered_ids
        table[1] = np.where(
            (best_h == me) | (best_h == covered_ids),
            covered_ids,  # canonical "direct"
            best_h,
        )
        return table, finite & (covered_ids != me)

    def _add_rec_datagram(
        self,
        out: List[Tuple[int, Message]],
        view: MembershipView,
        a_idx: int,
        msg: RecommendationMessage,
    ) -> None:
        """Append the ``(address, message)`` carrying ``msg`` to client
        ``a_idx`` — nothing when there is no working path (footnote 8's
        reply relay included)."""
        if a_idx in self._reply_relay and not self.link_up_view(a_idx):
            relay_idx = self._reply_relay[a_idx]
            if self.link_up_view(relay_idx):
                envelope = RelayEnvelope(
                    origin=self.me, inner=msg, target=view.members[a_idx]
                )
                self.counters.incr("relay_recommendation_sent")
                out.append((view.members[relay_idx], envelope))
            return
        out.append((view.members[a_idx], msg))

    # ------------------------------------------------------------------
    # Protocol: message handlers
    # ------------------------------------------------------------------
    def on_linkstate(self, msg: LinkStateMessage, src: int) -> None:
        view = self._require_view()
        src_idx = view.position(src)
        if src_idx < 0 or msg.view_version != self.wire_view_version():
            self._note_dropped_message(msg.view_version)
            return
        self.table.update_row(src_idx, msg.row, self.sim.now)
        relay_idx = -1 if msg.relay_via is None else view.position(msg.relay_via)
        if relay_idx >= 0:
            # Footnote 8: this client is behind a broken direct link;
            # route recommendations back through the same relay.
            self._reply_relay[src_idx] = relay_idx
        else:
            self._reply_relay.pop(src_idx, None)

    def on_recommendation(self, msg: RecommendationMessage, src: int) -> None:
        """Install one rendezvous' round-2 entries and note its §4.1
        evidence, in a fixed handful of array operations.

        One unsigned max validates both columns, and one ``(n,)`` bool
        mask of the listed destinations finds an entry about this node
        (dropped) and a repeated destination (the only case applied one
        entry at a time, last wins); the same mask is the failover
        manager's cover / omission evidence. Nothing of ``msg`` is kept.
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
            # one): sequential last-wins semantics.
            self._apply_entries_scalar(dsts, hops, src_idx, msg.sent_at, now)
        else:
            # Distinct destinations, in any order: every entry writes its
            # own slots, so one fancy-indexed write per array is the
            # sequential result.
            if self.route_sent_at is not None:
                # Footnote 11: an out-of-order (older-computed)
                # recommendation must not clobber a newer best hop —
                # nor refresh its freshness window (stale information
                # is not evidence the installed hop still holds).
                live = msg.sent_at >= self.route_sent_at[dsts]
                dsts, hops = dsts[live], hops[live]
                self.route_sent_at[dsts] = msg.sent_at
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

    def _apply_entries_scalar(
        self,
        dsts: np.ndarray,
        hops: np.ndarray,
        src_idx: int,
        sent_at: float,
        now: float,
    ) -> None:
        """Sequential fallback preserving last-wins duplicate semantics."""
        sent = self.route_sent_at
        keep_displaced = self.route_hop2 is not None
        for dst_idx, hop_idx in zip(dsts.tolist(), hops.tolist()):
            if sent is not None:
                if sent_at < sent[dst_idx]:
                    continue
                sent[dst_idx] = sent_at
            if (
                keep_displaced
                and self.route_server[dst_idx] >= 0
                and self.route_server[dst_idx] != src_idx
            ):
                self.route_hop2[dst_idx] = self.route_hop[dst_idx]
                self.route_time2[dst_idx] = self.route_time[dst_idx]
                self.route_server2[dst_idx] = self.route_server[dst_idx]
            self.route_time[dst_idx] = now
            self.route_hop[dst_idx] = hop_idx
            self.route_server[dst_idx] = src_idx

    # ------------------------------------------------------------------
    # Failover (§4.1)
    # ------------------------------------------------------------------
    def _sees_alive(self, dst_idx: int) -> bool:
        return self.table.sees_alive(
            dst_idx, self.sim.now, self.config.rec_memory_s()
        )

    def _evaluate_failover(self) -> FailoverPoll:
        poll = self.failover.poll(
            self.sim.now,
            self.monitor.alive[self._member_ids],
            self._sees_alive,
            allow_relay=self.config.relay_failover,
        )
        self._extra_servers = set(poll.extra_servers)
        self._relay_servers = set(poll.relay_servers)
        newly_adopted = sorted(
            {s for _, s in poll.adopted} | {s for _, s in poll.adopted_via_relay}
        )
        if newly_adopted:
            # Send link state to newly adopted failover servers right
            # away (scenario 2's "immediately selects ... and sends").
            self.counters.incr(
                "failover_adoptions",
                len(poll.adopted) + len(poll.adopted_via_relay),
            )
            if poll.adopted_via_relay:
                self.counters.incr(
                    "failover_relay_adoptions", len(poll.adopted_via_relay)
                )
            self._refresh_own_row()
            self._send_linkstate(newly_adopted)
        if poll.suppressed:
            self.counters.incr("failover_suppressed_polls", poll.suppressed)
        self._last_double_failures = poll.double_failures
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

    def double_failure_count(self, proximal_only: bool = True) -> int:
        """Destinations whose both default rendezvous are currently
        failed (Figure 11's per-interval quantity).

        ``proximal_only`` matches the paper's measurement ("failures *to*
        both of the destination's default rendezvous nodes" — this node's
        own links to them); pass False for the full §4 semantics that
        also count remote rendezvous failures.
        """
        poll = self._evaluate_failover()
        return poll.proximal_double_failures if proximal_only else poll.double_failures

    # ------------------------------------------------------------------
    # Route queries
    # ------------------------------------------------------------------
    def _redundant_route(self, dst_idx: int) -> Optional[Route]:
        """§4.2 fallback: one-hop via a client whose table we hold.

        A single min-plus gather over the held rows.
        """
        fresh = self._fresh_client_indices()
        fresh = fresh[fresh != dst_idx]
        if fresh.size == 0:
            return None
        own = self._cost_row(self.me_idx)
        via = own[fresh] + self.table.cost_gather(
            fresh, dst_idx, self.config.path_metric, self.config.loss_penalty_ms
        )
        pos = int(np.argmin(via))
        cost = float(via[pos])
        if not np.isfinite(cost):
            return None
        hop = int(fresh[pos])
        return Route(
            dst=dst_idx, hop=hop, cost_ms=cost, source=SOURCE_REDUNDANT, age_s=0.0
        )

    def route_to(self, dst_idx: int) -> Route:
        """Preferred order: fresh recommendation, redundant table, direct."""
        self._require_view()
        if dst_idx == self.me_idx:
            return Route(dst=dst_idx, hop=dst_idx, cost_ms=0.0, source=SOURCE_DIRECT, age_s=0.0)
        now = self.sim.now
        own = self._cost_row(self.me_idx)

        rec_age = now - float(self.route_time[dst_idx])
        hop = int(self.route_hop[dst_idx])
        rec_fresh = rec_age <= 2.0 * self.routing_interval_s and hop >= 0
        if rec_fresh and self.config.verify_recommendations:
            hop = self._cross_validated_hop(own, dst_idx, hop, now)
        if rec_fresh and (hop == dst_idx or self.link_up_view(hop)):
            cost = self._estimate_cost(own, hop, dst_idx)
            return Route(
                dst=dst_idx,
                hop=hop,
                cost_ms=cost,
                source=SOURCE_RECOMMENDATION,
                age_s=rec_age,
            )
        fallback = self._redundant_route(dst_idx)
        if fallback is not None:
            return fallback
        if self.link_up_view(dst_idx):
            return Route(
                dst=dst_idx,
                hop=dst_idx,
                cost_ms=float(own[dst_idx]),
                source=SOURCE_DIRECT,
                age_s=0.0,
            )
        return Route(dst=dst_idx, hop=-1, cost_ms=np.inf, source=SOURCE_DIRECT, age_s=np.inf)

    def route_vector(self) -> Tuple[np.ndarray, np.ndarray]:
        """All destinations' routes in one pass (see :class:`RouterBase`).

        Semantically identical to calling :meth:`route_to` per
        destination, but the recommendation-freshness test, the §4.2
        redundant fallback, and the direct-path fallback each become one
        numpy operation over the held rows. With recommendation
        cross-validation enabled the per-destination path is taken (its
        conflict accounting is inherently sequential).
        """
        view = self._require_view()
        if self.config.verify_recommendations:
            return super().route_vector()
        n = view.n
        now = self.sim.now
        me = self.me_idx
        metric = self.config.path_metric
        penalty = self.config.loss_penalty_ms
        own = self._cost_row(me)
        link_up = self.monitor.alive[self._member_ids]

        hops = np.full(n, -1, dtype=np.int64)
        usable = np.zeros(n, dtype=bool)
        arange = np.arange(n)

        # 1. Fresh recommendations whose hop is the destination itself
        #    or a currently-up link.
        rec_hop = self.route_hop
        rec_fresh = (
            ((now - self.route_time) <= 2.0 * self.routing_interval_s)
            & (rec_hop >= 0)
        )
        rec_fresh[me] = False
        hop_direct = rec_fresh & (rec_hop == arange)
        hop_up = rec_fresh & ~hop_direct
        idxs = np.nonzero(hop_up)[0]
        hop_up[idxs] = link_up[rec_hop[idxs]]
        use_rec = hop_direct | hop_up
        #    _estimate_cost adds the hop's row entry to the first leg only
        #    where it is finite, so the estimate is finite exactly where
        #    the first leg is.
        rd = np.nonzero(use_rec)[0]
        hops[rd] = rec_hop[rd]
        usable[rd] = np.isfinite(own[hops[rd]])

        # 2. §4.2 redundant fallback for the rest.
        rem = np.nonzero(~use_rec)[0]
        rem = rem[rem != me]
        if rem.size:
            fresh = self._fresh_client_indices()
            if fresh.size:
                rows = self.table.cost_matrix(fresh, metric, penalty)
                via = own[fresh][:, None] + rows[:, rem]  # (k, r)
                # A client cannot be the one-hop to itself.
                col_of = np.full(n, -1, dtype=np.int64)
                col_of[rem] = np.arange(rem.size)
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
                direct = rem[link_up[rem]]
                hops[direct] = direct
                usable[direct] = np.isfinite(own[direct])

        hops[me] = me
        usable[me] = True
        return hops, usable

    def _cross_validated_hop(
        self, own: np.ndarray, dst_idx: int, primary: int, now: float
    ) -> int:
        """§7 defense: compare the two rendezvous' candidate hops locally.

        The grid quorum gives every pair two rendezvous; when their
        recommendations disagree, the node evaluates both hops against
        the link-state rows it already holds (its own measurements plus
        its ~2√n clients' tables) and keeps the cheaper. A single lying
        rendezvous therefore cannot redirect traffic: its self-serving
        hop is priced by *its own* announced link state, which honest
        measurement keeps truthful.
        """
        secondary = int(self.route_hop2[dst_idx])
        sec_age = now - float(self.route_time2[dst_idx])
        if secondary < 0 or sec_age > 2.0 * self.routing_interval_s:
            return primary
        if secondary == primary:
            return primary
        self.counters.incr("rec_conflicts")
        if secondary != dst_idx and not self.link_up_view(secondary):
            return primary
        primary_cost = self._estimate_cost(own, primary, dst_idx)
        secondary_cost = self._estimate_cost(own, secondary, dst_idx)
        if secondary_cost < primary_cost:
            self.counters.incr("rec_conflicts_overridden")
            return secondary
        return primary

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
            second = float(self._cost_row(hop)[dst_idx])
        else:
            second = np.nan  # unknown; cost is a lower-bound estimate
        return first_leg + (second if np.isfinite(second) else 0.0)

    def last_rec_times(self) -> np.ndarray:
        """Per-destination time of the last recommendation (Figure 12)."""
        return self.route_time.copy()
