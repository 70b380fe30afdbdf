"""Coordinator-free membership: peer-to-peer gossip anti-entropy.

With ``OverlayConfig(membership=Gossip())`` the §5 coordinator
disappears entirely. Membership changes — joins, graceful leaves, and crash
expiries — become locally-originated *ops* that any node can introduce:

    op = (origin, seq, action, target, stamp)

``(origin, seq)`` identifies the op globally (each node numbers its own
ops densely from 1), so a node's knowledge is summarized by a **version
vector** ``vv[origin] = highest contiguously-applied seq``. Two nodes
with equal version vectors hold identical op sets, and therefore resolve
identical membership views.

Per-target resolution is last-writer-wins on the SWIM-style incarnation
``stamp``: the winning record is the max by ``(stamp, dead, origin)``,
so at equal stamps a death claim (leave/expire) beats the join it
refutes, and a member refutes a false death by re-joining at
``stamp + 1``. A member is *alive* iff its winning action is a join.

Dissemination is push-pull epidemic: every :data:`PUSH_INTERVAL_S` each
node bumps its heartbeat counter and pushes a
:class:`~repro.net.packet.GossipDigest` (version vector + heartbeat
vector) to :data:`FANOUT` random live peers. A receiver that is
behind pulls the missing per-origin ranges
(:class:`~repro.net.packet.GossipPull`); one that is ahead pushes its
surplus ops straight back (:class:`~repro.net.packet.GossipOps`). When a
responder's bounded op log no longer covers a requested range — or the
range is unreasonably large — it falls back to a full resolved-state
:class:`~repro.net.packet.GossipSnapshot`, the gossip analogue of the
coordinator plane's full-view repair. Pull retries back off like the
coordinator ring walk (:data:`PULL_RETRY`), and
the routers' version-gap callback triggers an immediate (rate-limited)
extra push round.

Liveness is the merged heartbeat vector: when a member's heartbeat has
not advanced for ``membership_timeout_s``, any node that notices
originates an expire op at the member's current stamp. A live member
that sees itself declared dead refutes with a join at ``stamp + 1``.

Routing compatibility: each engine packs its version vector into a
single integer view version — ``(total ops << 20) | FNV hash of the
vector`` — that is strictly increasing locally and equal across nodes
exactly when their op knowledge is equal, so the routers'
version-equality drop rule and the harness's view-divergence metric
work unchanged (with coordinator epoch 0).

An engine derives four things from its state on nearly every message —
the alive and dead member tuples (from ``records``) and the sorted
vector and packed version (from ``vv``) — and caches each until a
writer of its source clears it: ``_merge_record`` when a target's
liveness changes, ``_apply_op`` / ``_on_snapshot`` when an entry of
``vv`` moves.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.net.packet import (
    GossipDigest,
    GossipOps,
    GossipPull,
    GossipSnapshot,
    Message,
)
from repro.net.simulator import Simulator
from repro.net.transport import DatagramTransport
from repro.overlay.config import RetryBackoff
from repro.overlay.membership import MembershipView
from repro.overlay.node import OverlayNode
from repro.overlay.stats import CounterSet

__all__ = [
    "OP_JOIN",
    "OP_LEAVE",
    "OP_EXPIRE",
    "MAX_REPLAY_OPS",
    "packed_view_version",
    "GossipMembershipNode",
    "GossipMembershipPlane",
]

#: Period of each node's digest push round; with ``FANOUT`` peers per
#: round (plus one dead-probe) dissemination takes O(log n) rounds.
PUSH_INTERVAL_S = 5.0
#: Number of random live peers a digest push targets.
FANOUT = 3
#: Per-origin op-log retention for range replay; pulls reaching past it
#: fall back to a full resolved-state snapshot.
LOG_OPS = 128
#: Backoff of the anti-entropy and join pulls.
PULL_RETRY = RetryBackoff()

#: Membership op actions: one action byte on the wire (1-3).
OP_JOIN = 1
OP_LEAVE = 2
OP_EXPIRE = 3

#: An op replay larger than this serves a resolved snapshot instead —
#: past a point the O(members) snapshot is smaller than the op range,
#: and it also bounds the work a single reconciliation can cost.
MAX_REPLAY_OPS = 64

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193

#: A resolved per-target record: (stamp, action, op_origin).
Record = Tuple[int, int, int]
#: A replayable op: (origin, seq, action, target, stamp).
Op = Tuple[int, int, int, int, int]


def _vv_hash(items: Tuple[Tuple[int, int], ...]) -> int:
    """FNV-1a over the sorted version-vector entries (deterministic,
    independent of PYTHONHASHSEED and of insertion order)."""
    h = _FNV_OFFSET
    for origin, seq in items:
        for b in (
            origin & 0xFF,
            (origin >> 8) & 0xFF,
            seq & 0xFF,
            (seq >> 8) & 0xFF,
            (seq >> 16) & 0xFF,
            (seq >> 24) & 0xFF,
        ):
            h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFF
    return h


def packed_view_version(vv: Dict[int, int]) -> int:
    """Pack a version vector into one comparable view-version integer.

    ``(total ops << 20) | (hash of the sorted vector & 0xFFFFF)``. The
    op total makes it strictly increasing under any local merge (the
    vector only grows); the hash makes two *different* vectors with the
    same total collide with probability 2^-20 — and a collision merely
    delays a routing-message exchange by one gossip round, it cannot
    corrupt state.
    """
    items = tuple(sorted(vv.items()))
    total = sum(vv.values())
    return (total << 20) | (_vv_hash(items) & 0xFFFFF)


def _record_key(record: Record) -> Tuple[int, int, int]:
    """LWW ordering: higher stamp wins; at equal stamps a death claim
    beats the join it contradicts (SWIM's refutation rule, inverted so
    refuting requires a *fresh* incarnation); origin breaks exact ties
    deterministically."""
    stamp, action, op_origin = record
    return (stamp, 0 if action == OP_JOIN else 1, op_origin)


class GossipMembershipNode:
    """One node's gossip membership engine — its
    :class:`~repro.overlay.membership.MembershipClient` on this plane.

    Owns the node's op logs, version vector, resolved records, and
    heartbeat vector; handles the gossip wire messages dispatched by
    :meth:`OverlayNode.on_message`; and installs resolved views into the
    node's router. It runs its own push rounds, so it never arms the
    node's heartbeat.
    """

    __slots__ = (
        "node",
        "sim",
        "transport",
        "timeout_s",
        "me",
        "rng",
        "vv",
        "logs",
        "records",
        "pending",
        "hb",
        "last_advance",
        "active",
        "counters",
        "_push_timer",
        "_last_push_at",
        "_want_vv",
        "_pull_event",
        "_pull_attempt",
        "_join_event",
        "_join_attempt",
        "_join_seeds",
        "_joining",
        "_expired_marks",
        "_alive",
        "_dead",
        "_vv_sorted",
        "_version",
    )

    def __init__(
        self,
        node: OverlayNode,
        transport: DatagramTransport,
        timeout_s: float,
        rng: np.random.Generator,
    ):
        self.node = node
        self.sim: Simulator = node.sim
        self.transport = transport
        #: A member whose heartbeat has not advanced for this long is
        #: expired (the overlay's membership timeout).
        self.timeout_s = timeout_s
        self.me = node.id
        self.rng = rng
        #: Version vector: per origin, the highest contiguously-applied
        #: op sequence (dense from 1, so equality implies equal op sets).
        self.vv: Dict[int, int] = {}
        #: Bounded per-origin op logs for range replay. Entries are
        #: ``(seq, action, target, stamp)`` in application order; after
        #: a snapshot adoption a log may have seq holes, which the range
        #: server detects and answers with another snapshot.
        self.logs: Dict[int, Deque[Tuple[int, int, int, int]]] = {}
        #: Resolved per-target membership records (LWW winners),
        #: including tombstones for dead members.
        self.records: Dict[int, Record] = {}
        #: Out-of-order ops buffered until their predecessors arrive.
        self.pending: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        #: Merged heartbeat vector (pointwise max).
        self.hb: Dict[int, int] = {}
        #: Local receipt time of each member's last heartbeat advance —
        #: the crash-expiry clock.
        self.last_advance: Dict[int, float] = {}
        #: True while this node is a (joining or joined) participant;
        #: inactive engines merge knowledge but never install views.
        self.active = False
        self.counters = CounterSet()
        self._push_timer = None
        self._last_push_at = float("-inf")
        #: Highest seq anyone has advertised per origin; an origin whose
        #: advertisement exceeds our vector is an open gap to pull.
        self._want_vv: Dict[int, int] = {}
        self._pull_event = None
        self._pull_attempt = 0
        self._join_event = None
        self._join_attempt = 0
        self._join_seeds: Tuple[int, ...] = ()
        self._joining = False
        #: (target, stamp) pairs this node already expired — one expire
        #: op per incarnation, however many ticks observe the silence.
        self._expired_marks: Set[Tuple[int, int]] = set()
        #: Derivations cached until their source moves (None: stale).
        self._alive: Optional[Tuple[int, ...]] = None
        self._dead: Optional[Tuple[int, ...]] = None
        self._vv_sorted: Optional[Tuple[Tuple[int, int], ...]] = None
        self._version: Optional[int] = None

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def alive_members(self) -> Tuple[int, ...]:
        """Members whose winning record is a join, sorted."""
        if self._alive is None:
            records = self.records
            self._alive = tuple(
                target for target in sorted(records) if records[target][1] == OP_JOIN
            )
        return self._alive

    def view_version(self) -> int:
        """This engine's packed view version."""
        if self._version is None:
            self._version = packed_view_version(self.vv)
        return self._version

    def _vv_changed(self) -> None:
        self._vv_sorted = self._version = None

    # ------------------------------------------------------------------
    # Op application
    # ------------------------------------------------------------------
    def _merge_record(self, target: int, record: Record) -> bool:
        existing = self.records.get(target)
        if existing is not None and _record_key(record) <= _record_key(existing):
            return False
        self.records[target] = record
        if existing is None or (existing[1] == OP_JOIN) != (record[1] == OP_JOIN):
            self._alive = self._dead = None
        if record[1] == OP_JOIN:
            # A fresh incarnation starts its expiry clock now.
            self.last_advance[target] = self.sim.now
        else:
            self.hb.pop(target, None)
            self.last_advance.pop(target, None)
        return True

    def _apply_op(
        self, origin: int, seq: int, action: int, target: int, stamp: int
    ) -> None:
        log = self.logs.get(origin)
        if log is None:
            log = deque(maxlen=LOG_OPS)
            self.logs[origin] = log
        log.append((seq, action, target, stamp))
        self.vv[origin] = seq
        self._vv_changed()
        self._merge_record(target, (stamp, action, origin))

    def _drain_pending(self, origin: int) -> bool:
        changed = False
        while True:
            nxt = self.vv.get(origin, 0) + 1
            entry = self.pending.pop((origin, nxt), None)
            if entry is None:
                return changed
            action, target, stamp = entry
            self._apply_op(origin, nxt, action, target, stamp)
            changed = True

    def originate(self, action: int, target: int, stamp: int) -> Op:
        """Introduce a membership op as this node (next own seq)."""
        seq = self.vv.get(self.me, 0) + 1
        self._apply_op(self.me, seq, action, target, stamp)
        return (self.me, seq, action, target, stamp)

    # ------------------------------------------------------------------
    # Lifecycle (called by the plane and the owning node)
    # ------------------------------------------------------------------
    def seed_bootstrap(self, members: Sequence[int]) -> None:
        """Install the out-of-band bootstrap knowledge: one join op per
        initial member, as if each had introduced itself. Seeded into
        every engine identically (zero wire bytes, like the coordinator
        plane's bootstrap), so all initial packed versions agree."""
        now = self.sim.now
        for member in sorted(members):
            self._apply_op(member, 1, OP_JOIN, member, 1)
            self.hb.setdefault(member, 0)
            self.last_advance[member] = now

    def on_node_start(self, monitor_phase: float, router_phase: float) -> None:
        """The owning node started: begin periodic push rounds, with an
        rng phase so rounds are unsynchronized across nodes."""
        if self._push_timer is not None:
            return
        self._push_timer = self.sim.periodic(
            PUSH_INTERVAL_S,
            self._gossip_tick,
            phase=PUSH_INTERVAL_S * (0.1 + 0.9 * float(self.rng.random())),
        )

    def on_node_stop(self) -> None:
        """The owning node stopped (leave/crash teardown): stop every
        engine timer. Knowledge is kept — a rebooting node rejoins from
        its own stable storage plus a bootstrap pull."""
        self.active = False
        self._joining = False
        if self._push_timer is not None:
            self._push_timer.stop()
            self._push_timer = None
        if self._pull_event is not None:
            self._pull_event.cancel()
            self._pull_event = None
        if self._join_event is not None:
            self._join_event.cancel()
            self._join_event = None

    def begin_join(self) -> None:
        """Start the join protocol: bootstrap-pull the resolved state
        from a seed peer (retried with jittered backoff across seeds),
        then originate a join op at a fresh incarnation stamp."""
        if self._joining:
            raise ConfigError(f"gossip node {self.me} is already joining")
        seeds = tuple(m for m in self.alive_members() if m != self.me)
        if not seeds:
            raise ConfigError(
                f"gossip node {self.me} has no live seed peers to join through"
            )
        self._joining = True
        self._join_seeds = seeds
        self._join_attempt = 0
        self._send_join_pull()

    def _send_join_pull(self) -> None:
        dst = self._join_seeds[int(self.rng.integers(len(self._join_seeds)))]
        self.transport.send(self.me, dst, GossipPull(origin=self.me, ranges=()))
        self.counters.incr("pulls")
        delay = PULL_RETRY.delay(self._join_attempt, self.rng)
        self._join_attempt += 1
        self._join_event = self.sim.schedule(delay, self._join_retry_tick)

    def _join_retry_tick(self) -> None:
        self._join_event = None
        if not self._joining:
            return
        self.counters.incr("join_retries")
        self._send_join_pull()

    def _complete_join(self) -> None:
        """A bootstrap snapshot arrived: declare this incarnation."""
        self._joining = False
        if self._join_event is not None:
            self._join_event.cancel()
            self._join_event = None
        self.active = True
        rec = self.records.get(self.me)
        stamp = (rec[0] + 1) if rec is not None else 1
        op = self.originate(OP_JOIN, self.me, stamp)
        self.hb[self.me] = self.hb.get(self.me, 0) + 1
        self.last_advance[self.me] = self.sim.now
        self.counters.incr("joins")
        self._push_ops((op,))

    def originate_leave(self) -> None:
        """Graceful departure: introduce a leave op at the current stamp
        (dead beats alive at equal stamps) and push it to live peers
        *before* the node unbinds from the transport — any peer can
        serve the op onward, so the origin's death doesn't lose it."""
        rec = self.records.get(self.me)
        stamp = rec[0] if rec is not None else 1
        op = self.originate(OP_LEAVE, self.me, stamp)
        self.counters.incr("leaves")
        self._push_ops((op,))
        self.active = False

    # ------------------------------------------------------------------
    # Push rounds
    # ------------------------------------------------------------------
    def _gossip_tick(self) -> None:
        if not self.node.registered:
            return
        now = self.sim.now
        self.hb[self.me] = self.hb.get(self.me, 0) + 1
        self.last_advance[self.me] = now
        if self._check_expiries(now):
            self._maybe_install()
        self._push_digest()

    def _check_expiries(self, now: float) -> bool:
        """Originate expire ops for members whose heartbeats stalled."""
        timeout = self.timeout_s
        changed = False
        for target in self.alive_members():
            if target == self.me:
                continue
            seen = self.last_advance.get(target)
            if seen is None:
                self.last_advance[target] = now
                continue
            if now - seen <= timeout:
                continue
            stamp = self.records[target][0]
            if (target, stamp) in self._expired_marks:
                continue
            self._expired_marks.add((target, stamp))
            self.originate(OP_EXPIRE, target, stamp)
            self.counters.incr("expiries")
            changed = True
        return changed

    def _vv_items(self) -> Tuple[Tuple[int, int], ...]:
        if self._vv_sorted is None:
            self._vv_sorted = tuple(sorted(self.vv.items()))
        return self._vv_sorted

    def _hb_items(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (member, self.hb[member])
            for member in self.alive_members()
            if member in self.hb
        )

    def _pick_peers(self, k: int) -> List[int]:
        peers = [m for m in self.alive_members() if m != self.me]
        if not peers:
            return []
        k = min(k, len(peers))
        chosen = self.rng.choice(len(peers), size=k, replace=False)
        return [peers[int(i)] for i in sorted(int(c) for c in chosen)]

    def _dead_targets(self) -> Tuple[int, ...]:
        """Known members whose winning record is a leave or expiry."""
        if self._dead is None:
            records, me = self.records, self.me
            self._dead = tuple(
                target
                for target in sorted(records)
                if target != me and records[target][1] != OP_JOIN
            )
        return self._dead

    def _push_digest(self) -> None:
        targets = self._pick_peers(FANOUT)
        # Probe one known-dead member per round. After a symmetric
        # partition both sides expire each other, leaving neither with a
        # live peer on the far side — mutual deafness no amount of
        # live-peer gossip can heal. A dead member that is actually
        # running answers the digest by reconciling and refuting its own
        # expiry; a genuinely dead one costs a single unanswered digest.
        dead = self._dead_targets()
        if dead:
            targets.append(dead[int(self.rng.integers(len(dead)))])
            self.counters.incr("dead_probes")
        if not targets:
            return
        digest = GossipDigest(
            origin=self.me, vv=self._vv_items(), heartbeats=self._hb_items()
        )
        for dst in targets:
            self.transport.send(self.me, dst, digest)
        self.counters.incr("pushes", len(targets))
        self._last_push_at = self.sim.now

    def _push_ops(self, ops: Tuple[Op, ...]) -> None:
        """Eagerly push specific ops (join/leave announcements)."""
        for dst in self._pick_peers(FANOUT):
            self.transport.send(self.me, dst, GossipOps(origin=self.me, ops=ops))
            self.counters.incr("ops_sent", len(ops))

    def on_version_gap(self) -> None:
        """Routing saw a newer view than ours is known by — run an extra
        digest round now, rate-limited to one per gossip interval."""
        if not self.active or not self.node.registered:
            return
        if self.sim.now - self._last_push_at < PUSH_INTERVAL_S:
            return
        self.counters.incr("nudges")
        self._push_digest()

    # ------------------------------------------------------------------
    # Wire message handling
    # ------------------------------------------------------------------
    def on_message(self, msg: Message, src: int) -> None:
        if isinstance(msg, GossipDigest):
            self._on_digest(msg, src)
        elif isinstance(msg, GossipPull):
            self._on_pull(msg, src)
        elif isinstance(msg, GossipOps):
            self._on_ops(msg)
        elif isinstance(msg, GossipSnapshot):
            self._on_snapshot(msg)

    def _on_digest(self, msg: GossipDigest, src: int) -> None:
        self._merge_heartbeats(msg.heartbeats)
        if msg.vv == self._vv_items():
            # The steady state: nothing to pull, no surplus to serve, no
            # advertisement above our own vector.
            return
        sender_ahead: List[Tuple[int, int]] = []
        theirs: Dict[int, int] = {}
        for origin, seq in msg.vv:
            theirs[origin] = seq
            have = self.vv.get(origin, 0)
            if seq > have:
                sender_ahead.append((origin, have))
                if seq > self._want_vv.get(origin, 0):
                    self._want_vv[origin] = seq
        if sender_ahead:
            self.transport.send(
                self.me, src, GossipPull(origin=self.me, ranges=tuple(sender_ahead))
            )
            self.counters.incr("pulls")
            self._arm_pull_retry()
        # Push-pull: hand our surplus straight back instead of waiting
        # for the sender to digest us.
        surplus = tuple(
            (origin, theirs.get(origin, 0))
            for origin, seq in self._vv_items()
            if seq > theirs.get(origin, 0)
        )
        if surplus:
            self._serve_ranges(surplus, src)

    def _on_pull(self, msg: GossipPull, src: int) -> None:
        if not msg.ranges:
            self._send_snapshot(src)
            return
        self._serve_ranges(msg.ranges, src)

    def _on_ops(self, msg: GossipOps) -> None:
        changed = False
        for origin, seq, action, target, stamp in msg.ops:
            have = self.vv.get(origin, 0)
            if seq <= have:
                continue
            if seq == have + 1:
                self._apply_op(origin, seq, action, target, stamp)
                changed = True
                if self._drain_pending(origin):
                    changed = True
            else:
                self.pending[(origin, seq)] = (action, target, stamp)
                if seq > self._want_vv.get(origin, 0):
                    self._want_vv[origin] = seq
                self._arm_pull_retry()
        self._after_merge(changed)

    def _on_snapshot(self, msg: GossipSnapshot) -> None:
        self._merge_heartbeats(msg.heartbeats)
        changed = False
        for target, stamp, action, op_origin in msg.records:
            if self._merge_record(target, (stamp, action, op_origin)):
                changed = True
        for origin, seq in msg.vv:
            if seq > self.vv.get(origin, 0):
                self.vv[origin] = seq
                self._vv_changed()
                changed = True
            if seq > self._want_vv.get(origin, 0):
                self._want_vv[origin] = seq
        for key in sorted(self.pending):
            if key[1] <= self.vv.get(key[0], 0):
                del self.pending[key]
        for origin in sorted({o for o, _ in self.pending}):
            if self._drain_pending(origin):
                changed = True
        if self._joining:
            self._complete_join()
            changed = True
        self._after_merge(changed)

    def _merge_heartbeats(self, hbs: Tuple[Tuple[int, int], ...]) -> None:
        now = self.sim.now
        for member, counter in hbs:
            if counter > self.hb.get(member, 0):
                self.hb[member] = counter
                self.last_advance[member] = now

    def _after_merge(self, changed: bool) -> None:
        if self._maybe_refute():
            changed = True
        if changed:
            self._maybe_install()
        self._settle_pull()

    def _maybe_refute(self) -> bool:
        """A participant that sees itself resolved dead is being wrongly
        expired (or its leave/crash record outlived a reboot the plane
        missed): refute with a join at the next incarnation stamp."""
        if not self.active or not self.node.registered:
            return False
        rec = self.records.get(self.me)
        if rec is None or rec[1] == OP_JOIN:
            return False
        op = self.originate(OP_JOIN, self.me, rec[0] + 1)
        self.hb[self.me] = self.hb.get(self.me, 0) + 1
        self.last_advance[self.me] = self.sim.now
        self.counters.incr("refutes")
        self._push_ops((op,))
        return True

    def _maybe_install(self) -> None:
        if not self.active or not self.node.registered:
            return
        members = self.alive_members()
        if self.me not in members:
            return  # refuted before it is re-installed
        # The packed version is identical across nodes holding identical
        # op knowledge and strictly increasing locally, so the routers'
        # version-equality drop rule keeps working.
        version = self.view_version()
        router = self.node.router
        current = router.view
        if current is not None and version <= current.version:
            return
        router.on_view_change(MembershipView(version=version, members=members))
        self.node.start_if_armed()

    # ------------------------------------------------------------------
    # Range serving
    # ------------------------------------------------------------------
    def _collect_range(
        self, origin: int, have: int, top: int
    ) -> Optional[List[Op]]:
        """Ops ``have+1 .. top`` from ``origin``'s log, or None when the
        bounded log no longer covers the range contiguously."""
        log = self.logs.get(origin)
        if log is None:
            return None
        by_seq = {entry[0]: entry for entry in log}
        out: List[Op] = []
        for seq in range(have + 1, top + 1):
            entry = by_seq.get(seq)
            if entry is None:
                return None
            _, action, target, stamp = entry
            out.append((origin, seq, action, target, stamp))
        return out

    def _serve_ranges(
        self, ranges: Tuple[Tuple[int, int], ...], dst: int
    ) -> None:
        ops: List[Op] = []
        fallback = False
        for origin, have in ranges:
            top = self.vv.get(origin, 0)
            if top <= have:
                continue
            seg = self._collect_range(origin, have, top)
            if seg is None:
                fallback = True
                break
            ops.extend(seg)
        if fallback or len(ops) > MAX_REPLAY_OPS:
            self._send_snapshot(dst)
            return
        if ops:
            self.transport.send(
                self.me, dst, GossipOps(origin=self.me, ops=tuple(ops))
            )
            self.counters.incr("ops_sent", len(ops))

    def _send_snapshot(self, dst: int) -> None:
        records = tuple(
            (target, stamp, action, op_origin)
            for target, (stamp, action, op_origin) in sorted(self.records.items())
        )
        self.transport.send(
            self.me,
            dst,
            GossipSnapshot(
                origin=self.me,
                vv=self._vv_items(),
                records=records,
                heartbeats=self._hb_items(),
            ),
        )
        self.counters.incr("snapshots")

    # ------------------------------------------------------------------
    # Anti-entropy pull retries (jittered exponential backoff)
    # ------------------------------------------------------------------
    def _open_gaps(self) -> List[Tuple[int, int]]:
        gaps: List[Tuple[int, int]] = []
        for origin in sorted(self._want_vv):
            have = self.vv.get(origin, 0)
            if self._want_vv[origin] > have:
                gaps.append((origin, have))
        return gaps

    def _arm_pull_retry(self) -> None:
        if self._pull_event is not None:
            return
        delay = PULL_RETRY.delay(self._pull_attempt, self.rng)
        self._pull_event = self.sim.schedule(delay, self._pull_retry_tick)

    def _settle_pull(self) -> None:
        if self._open_gaps():
            return
        self._pull_attempt = 0
        if self._pull_event is not None:
            self._pull_event.cancel()
            self._pull_event = None

    def _pull_retry_tick(self) -> None:
        self._pull_event = None
        gaps = self._open_gaps()
        if not gaps:
            self._pull_attempt = 0
            return
        if not self.node.registered:
            return
        peers = [m for m in self.alive_members() if m != self.me]
        if peers:
            # Retry against a random live peer, not the original sender:
            # anti-entropy means anyone ahead of us can bridge the gap,
            # and the original sender may be the one that just died.
            dst = peers[int(self.rng.integers(len(peers)))]
            self.transport.send(
                self.me, dst, GossipPull(origin=self.me, ranges=tuple(gaps))
            )
            self.counters.incr("pulls")
            self.counters.incr("pull_retries")
        self._pull_attempt += 1
        self._arm_pull_retry()


class GossipMembershipPlane:  # reprolint: disable=RL002(one plane per experiment aggregating all engines)
    """The coordinator-free
    :class:`~repro.overlay.membership.MembershipPlane`: no endpoint at
    all — every operation delegates to the relevant node's engine, and
    convergence is the engines' business.
    """

    def __init__(self, transport: DatagramTransport, timeout_s: float):
        self.transport = transport
        self.timeout_s = timeout_s
        self.engines: Dict[int, GossipMembershipNode] = {}

    def attach(self, node: OverlayNode, rng: np.random.Generator) -> None:
        """Create the gossip engine for ``node``, with its own seeded
        rng (push phases, peer selection, retry jitter). The draw exists
        only on this plane, so the others keep their exact build streams."""
        engine = GossipMembershipNode(
            node,
            self.transport,
            self.timeout_s,
            np.random.default_rng(rng.integers(2**63)),
        )
        self.engines[node.id] = node.membership = node.gossip = engine

    def bootstrap(self, nodes: Sequence[OverlayNode]) -> None:
        """Seed every engine with the initial member set (out-of-band,
        like the coordinator bootstrap) and install the initial view on
        the active participants."""
        members = tuple(sorted(node.id for node in nodes))
        member_set = set(members)
        for node_id in sorted(self.engines):
            engine = self.engines[node_id]
            engine.seed_bootstrap(members)
            if node_id in member_set:
                engine.active = True
                engine._maybe_install()

    def admit(
        self, node: OverlayNode, monitor_phase: float, router_phase: float
    ) -> None:
        """Start the join protocol (bootstrap pull, then a join op at a
        fresh incarnation stamp — nothing to evict, the stamp supersedes
        any stale record). The node starts when the snapshot lands and
        the engine installs its first view; the engine's backoff-retried
        pull plays the acquisition role."""
        self.engines[node.id].begin_join()
        node.arm_start_on_view(monitor_phase, router_phase)

    def depart(self, node: OverlayNode) -> None:
        """Graceful leave: announce the leave op while the node can
        still push it — after teardown nobody could learn of the
        departure until crash expiry."""
        self.engines[node.id].originate_leave()
        node.teardown()

    def is_member(self, member: int) -> bool:
        return member in self.view.members

    def quiesce(self) -> None:
        """Stop every engine's timers (end-of-run cleanup)."""
        for node_id in sorted(self.engines):
            self.engines[node_id].on_node_stop()

    @property
    def view(self) -> MembershipView:
        """The globally-merged resolved view (reporting only; no single
        node necessarily holds it)."""
        merged: Dict[int, Record] = {}
        vv: Dict[int, int] = {}
        for node_id in sorted(self.engines):
            engine = self.engines[node_id]
            for target in sorted(engine.records):
                record = engine.records[target]
                existing = merged.get(target)
                if existing is None or _record_key(record) > _record_key(existing):
                    merged[target] = record
            for origin in sorted(engine.vv):
                if engine.vv[origin] > vv.get(origin, 0):
                    vv[origin] = engine.vv[origin]
        members = tuple(
            target for target in sorted(merged) if merged[target][1] == OP_JOIN
        )
        return MembershipView(
            version=packed_view_version(vv), members=members
        )

    def counters(self) -> Dict[str, int]:
        """All engines' counters summed."""
        return self.merged_stats().as_dict()

    def merged_stats(self) -> CounterSet:
        """:meth:`counters` as a CounterSet, for bench/tracing.py."""
        merged = CounterSet()
        for node_id in sorted(self.engines):
            counts = self.engines[node_id].counters.as_dict()
            for name in sorted(counts):
                merged.incr(name, counts[name])
        return merged
