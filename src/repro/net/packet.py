"""Typed in-simulation messages.

Messages carry structured payloads (numpy arrays, entry lists) for speed;
their :meth:`wire_size` reports what the compact §5 wire encoding *would*
occupy (:mod:`repro.overlay.wire`'s formulas), which is what the bandwidth
accounting uses. No run serialises a message; the tests hold every datagram
a run sends to a byte-level reference encoding of exactly that size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.overlay import wire

if TYPE_CHECKING:
    from repro.overlay.linkstate import LinkStateRow

__all__ = [
    "Message",
    "LinkStateMessage",
    "RecommendationMessage",
    "MembershipUpdate",
    "MembershipDelta",
    "MembershipRefresh",
    "MembershipAck",
    "CoordinatorHeartbeat",
    "CoordinatorPull",
    "CoordinatorReplicate",
    "GossipDigest",
    "GossipPull",
    "GossipOps",
    "GossipSnapshot",
    "KIND_LINKSTATE",
    "KIND_RECOMMENDATION",
    "KIND_MEMBERSHIP",
    "KIND_MEMBERSHIP_CTRL",
    "KIND_GOSSIP",
]

KIND_LINKSTATE = "ls"
KIND_RECOMMENDATION = "rec"
KIND_MEMBERSHIP = "member"
#: Membership control traffic (refresh heartbeats with their version
#: piggyback). Kept distinct from ``member`` so per-node view-update
#: accounting is not skewed by the coordinator host receiving every
#: overlay member's heartbeats.
KIND_MEMBERSHIP_CTRL = "member-ctl"
#: Coordinator-free membership traffic (digest pushes, anti-entropy
#: pulls, op replays, and snapshots of the gossip plane). One kind for
#: the whole plane so its byte cost is directly comparable against the
#: coordinator plane's ``member`` + ``member-ctl`` total.
KIND_GOSSIP = "gossip"


@dataclass(slots=True)
class Message:
    """Base class for overlay messages."""

    origin: int

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def wire_size(self) -> int:
        raise NotImplementedError


@dataclass(slots=True)
class LinkStateMessage(Message):
    """One node's link-state row (round 1 of the routing protocol).

    Attributes
    ----------
    row:
        The published :class:`~repro.overlay.linkstate.LinkStateRow` —
        latency (``inf`` for down links) and liveness per destination.
        Immutable and carried by reference: the sender's own table, every
        message of the same monitor state and every receiver's table hold
        this one object.
    view_version:
        Membership view version this row is indexed against.
    """

    row: LinkStateRow
    view_version: int = 0

    @property
    def kind(self) -> str:
        return KIND_LINKSTATE

    def wire_size(self) -> int:
        return wire.linkstate_message_bytes(len(self.row.latency_ms))


@dataclass(slots=True)
class RecommendationMessage(Message):
    """Round-2 best-one-hop recommendations for one rendezvous client.

    ``entries`` is one ``(k, 2)`` int64 array of ``(destination,
    one_hop)`` rows; a ``one_hop`` equal to the destination means "use
    the direct path". Any memory layout is accepted, and a sequence of
    pairs is converted. A standard sender's entries are the transposed
    column range of one ``(2, total)`` array, so each column is
    contiguous. Receivers keep nothing of it past their handler.
    """

    entries: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )
    view_version: int = 0

    def __post_init__(self) -> None:
        ent = self.entries
        if not (
            type(ent) is np.ndarray
            and ent.dtype == np.int64
            and ent.ndim == 2
            and ent.shape[1] == 2
        ):
            self.entries = np.asarray(ent, dtype=np.int64).reshape(-1, 2)

    @property
    def kind(self) -> str:
        return KIND_RECOMMENDATION

    def wire_size(self) -> int:
        return wire.recommendation_message_bytes(len(self.entries))


@dataclass(slots=True)
class MembershipUpdate(Message):
    """A new full membership view pushed by the membership service.

    With in-band membership this is a real wire message from the
    coordinator endpoint; out-of-band it is only used for its
    :meth:`wire_size` accounting.
    """

    version: int = 0
    members: Tuple[int, ...] = ()
    #: Coordinator epoch (0 = the unreplicated legacy coordinator, which
    #: costs nothing extra on the wire; replicated groups start at 1).
    epoch: int = 0

    @property
    def kind(self) -> str:
        return KIND_MEMBERSHIP

    def wire_size(self) -> int:
        base = wire.membership_message_bytes(len(self.members))
        return base + (wire.EPOCH_BYTES if self.epoch else 0)


@dataclass(slots=True)
class MembershipDelta(Message):
    """An incremental membership view update on the overlay wire.

    Carries one coalesced ``(from_version, to_version)`` transition; the
    receiver applies it to the view it holds at exactly ``from_version``
    (:func:`repro.overlay.wire.membership_delta_message_bytes` prices it).
    """

    from_version: int = 0
    to_version: int = 0
    joined: Tuple[int, ...] = ()
    left: Tuple[int, ...] = ()
    #: Coordinator epoch; deltas only apply within one epoch.
    epoch: int = 0

    @property
    def kind(self) -> str:
        return KIND_MEMBERSHIP

    def wire_size(self) -> int:
        base = wire.membership_delta_message_bytes(len(self.joined), len(self.left))
        return base + (wire.EPOCH_BYTES if self.epoch else 0)


@dataclass(slots=True)
class MembershipRefresh(Message):
    """A member's heartbeat to the in-band membership coordinator.

    ``view_version`` piggybacks the sender's currently-held view version
    (0 = no view yet); the coordinator compares it against the published
    version to detect gaps left by lost view updates and re-send the
    smallest bridging update.
    """

    view_version: int = 0
    #: Epoch of the held view (0 = none / legacy coordinator).
    epoch: int = 0

    @property
    def kind(self) -> str:
        return KIND_MEMBERSHIP_CTRL

    def wire_size(self) -> int:
        return wire.MEMBERSHIP_REFRESH_BYTES + (wire.EPOCH_BYTES if self.epoch else 0)


@dataclass(slots=True)
class MembershipAck(Message):
    """A coordinator's acknowledgement of a member's refresh.

    Only sent by replicated coordinator groups (``membership=Replicated(...)``).
    ``leader`` names the coordinator address the member should be talking
    to: the primary acks with its own address, while a backup receiving a
    misdirected refresh acks with a redirect to its believed primary.
    Members use acks (and view pushes) as proof-of-life for failover
    detection.
    """

    epoch: int = 0
    version: int = 0
    leader: int = -1

    @property
    def kind(self) -> str:
        return KIND_MEMBERSHIP_CTRL

    def wire_size(self) -> int:
        return wire.MEMBERSHIP_ACK_BYTES


@dataclass(slots=True)
class CoordinatorHeartbeat(Message):
    """Primary-to-replica proof of life carrying the log head position."""

    epoch: int = 0
    version: int = 0

    @property
    def kind(self) -> str:
        return KIND_MEMBERSHIP_CTRL

    def wire_size(self) -> int:
        return wire.COORDINATOR_SYNC_BYTES


@dataclass(slots=True)
class CoordinatorPull(Message):
    """A replica's request for a full state snapshot from the primary.

    Sent when the replica's mirrored log cannot bridge to the primary's
    advertised ``(epoch, version)`` (lost replication messages, or a
    replica rejoining after a crash).
    """

    epoch: int = 0
    version: int = 0

    @property
    def kind(self) -> str:
        return KIND_MEMBERSHIP_CTRL

    def wire_size(self) -> int:
        return wire.COORDINATOR_SYNC_BYTES


@dataclass(slots=True)
class CoordinatorReplicate(Message):
    """Primary-to-replica log replication: one transition or a snapshot.

    A delta replication (``from_version >= 0``) mirrors a single
    published :class:`MembershipDelta`; a snapshot (``from_version < 0``)
    carries the full member set at ``version`` and resets the replica's
    mirror (used at bootstrap, after pulls, and across epoch changes).
    """

    epoch: int = 0
    version: int = 0
    members: Tuple[int, ...] = ()
    from_version: int = -1
    joined: Tuple[int, ...] = ()
    left: Tuple[int, ...] = ()

    @property
    def is_delta(self) -> bool:
        return self.from_version >= 0

    @property
    def kind(self) -> str:
        return KIND_MEMBERSHIP

    def wire_size(self) -> int:
        return wire.coordinator_replicate_message_bytes(
            len(self.members), len(self.joined), len(self.left), self.is_delta
        )


@dataclass(slots=True)
class GossipDigest(Message):
    """A gossip push round's digest of the sender's membership knowledge.

    ``vv`` is the sender's version vector — per op-origin, the highest
    contiguously-applied membership-op sequence — and ``heartbeats`` its
    heartbeat vector (per live member, the highest heartbeat counter
    seen). Receivers compare ``vv`` against their own to decide whether
    to pull missing ops from the sender or push their surplus back.
    """

    vv: Tuple[Tuple[int, int], ...] = ()
    heartbeats: Tuple[Tuple[int, int], ...] = ()

    @property
    def kind(self) -> str:
        return KIND_GOSSIP

    def wire_size(self) -> int:
        return wire.gossip_digest_message_bytes(
            len(self.vv), len(self.heartbeats)
        )


@dataclass(slots=True)
class GossipPull(Message):
    """An anti-entropy pull for membership ops the sender is missing.

    ``ranges`` lists ``(op_origin, have_seq)`` pairs: "send me every op
    you hold from ``op_origin`` after ``have_seq``". An *empty* ranges
    tuple is the bootstrap form — "send me your full resolved state" —
    used by joiners with no membership knowledge at all.
    """

    ranges: Tuple[Tuple[int, int], ...] = ()

    @property
    def kind(self) -> str:
        return KIND_GOSSIP

    def wire_size(self) -> int:
        return wire.gossip_pull_message_bytes(len(self.ranges))


@dataclass(slots=True)
class GossipOps(Message):
    """A replay of membership ops, answering a pull or pushing surplus.

    Each op is ``(origin, seq, action, target, stamp)``: the op's place
    in its origin's log, then its action (1 = join, 2 = leave, 3 =
    expire), target and incarnation stamp
    (:data:`repro.overlay.wire.GOSSIP_OP_BYTES` each).
    """

    ops: Tuple[Tuple[int, int, int, int, int], ...] = ()

    @property
    def kind(self) -> str:
        return KIND_GOSSIP

    def wire_size(self) -> int:
        return wire.gossip_ops_message_bytes(len(self.ops))


@dataclass(slots=True)
class GossipSnapshot(Message):
    """Full resolved membership state: the gossip plane's gap fallback.

    Sent instead of an op replay when the responder's op log no longer
    retains the requested range (or the range is unreasonably large),
    and to bootstrap joiners. ``records`` carries per-target resolved
    state ``(target, stamp, action, op_origin)`` including tombstones;
    ``vv`` is the responder's version vector, which the receiver adopts
    pointwise-max, and ``heartbeats`` its heartbeat vector.
    """

    vv: Tuple[Tuple[int, int], ...] = ()
    records: Tuple[Tuple[int, int, int, int], ...] = ()
    heartbeats: Tuple[Tuple[int, int], ...] = ()

    @property
    def kind(self) -> str:
        return KIND_GOSSIP

    def wire_size(self) -> int:
        return wire.gossip_snapshot_message_bytes(
            len(self.vv), len(self.records), len(self.heartbeats)
        )
