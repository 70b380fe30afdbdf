"""The §5 wire encoding, byte for byte: the reference the byte bill is held to.

A run never serialises a datagram. The transport bills each one
``Message.wire_size()`` bytes, a formula over
:mod:`repro.overlay.wire`'s constants. This module says what those bytes
are: :func:`encode` gives one message's header flags and payload, and
:func:`decode` reads the payload's fields back. ``test_wire_tap.py``
holds every datagram of a run of each membership plane to
``HEADER_BYTES + len(payload) == msg.wire_size()`` and to a decode that
gives its fields back. The formats below are stated as ``struct``
layouts, not as the size constants, so a constant that drifts from them
fails that test.

The 46-byte header (UDP/IP plus the application header, calibrated to
the §6.1 coefficients) carries, besides the message type:

* ``origin``, the sending node or coordinator address;
* one view-version slot: ``view_version`` on link-state and
  recommendation messages, ``version`` on a full view and on a
  replicated snapshot (:data:`HEADER_FIELDS`). A link-state row's
  ``idx`` is the origin's position in that view;
* flag bits: :data:`EPOCH_FLAG` (a 4-byte epoch leads the payload; epoch
  0, the unreplicated coordinator, omits it) and :data:`SNAPSHOT_FLAG`
  (a ``CoordinatorReplicate`` carries a member set, not a delta).

Encoding notes:

* latency is rounded to whole milliseconds and clamped to 16 bits; the
  sentinel ``0xFFFF`` means "no finite latency" and decodes to ``inf``;
* the liveness byte packs an alive flag (bit 7) and loss percentage in
  [0, 100] (bits 0-6); rows carry no loss, so runs send 0. The flag is
  the monitor's verdict on its own: a link presumed up but not yet
  measured is alive with no latency, and receivers read that flag
  (``LinkStateTable``'s §4.1 death check);
* node IDs are 16 bits, versions, sequence numbers, heartbeats,
  incarnation stamps and epochs 32 bits, entry counts 16 bits;
* multi-hop link state would append a 2-byte ``Sec`` (second-node)
  identity per entry, and multi-hop recommendations a 2-byte path cost
  (the §3 extension, priced by ``wire.linkstate_message_bytes(n,
  multihop=True)``); no run sends either.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.net.packet import (
    CoordinatorHeartbeat,
    CoordinatorPull,
    CoordinatorReplicate,
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
)


class WireFormatError(ReproError):
    """A value does not fit its wire field, or a payload is malformed."""


#: Wire sentinel for an entry with no finite latency (down or unmeasured).
LATENCY_DEAD = 0xFFFF

#: Largest finite latency the 16-bit field can carry.
MAX_ENCODABLE_LATENCY_MS = LATENCY_DEAD - 1

#: Header flag: a 4-byte epoch leads the payload.
EPOCH_FLAG = 0x1
#: Header flag: a ``CoordinatorReplicate`` carries a snapshot.
SNAPSHOT_FLAG = 0x2

_ALIVE_BIT = 0x80
_LOSS_MASK = 0x7F
_LINKSTATE_ENTRY = np.dtype([("latency", ">u2"), ("live", "u1")])
_ID = struct.Struct(">H")
_U32 = struct.Struct(">I")
_COUNT = _ID
_ID_U32 = struct.Struct(">HI")
_DELTA_HEAD = struct.Struct(">IIHH")
_SYNC = struct.Struct(">II")
_ACK = struct.Struct(">IIH")
_OP = struct.Struct(">HIBHI")
_RECORD = struct.Struct(">HIBH")

#: Fields the header carries, per message class (see module docstring).
HEADER_FIELDS: Dict[type, FrozenSet[str]] = {
    LinkStateMessage: frozenset({"origin", "view_version", "row.idx"}),
    RecommendationMessage: frozenset({"origin", "view_version"}),
    MembershipUpdate: frozenset({"origin", "version"}),
}


def message_fields(msg: Message) -> Dict[str, object]:
    """Every field of ``msg`` by name; a link-state row's as ``row.*``."""
    fields = {f.name: getattr(msg, f.name) for f in dataclasses.fields(msg)}
    if isinstance(msg, LinkStateMessage):
        row = fields.pop("row")
        fields.update(
            {"row.idx": row.idx, "row.latency_ms": row.latency_ms, "row.alive": row.alive}
        )
    return fields


def header_fields(msg: Message) -> FrozenSet[str]:
    """The fields of ``msg`` its header carries, not its payload."""
    if isinstance(msg, CoordinatorReplicate) and not msg.is_delta:
        return frozenset({"origin", "version"})
    return HEADER_FIELDS.get(type(msg), frozenset({"origin"}))


def quantise_latency(latency_ms: np.ndarray) -> np.ndarray:
    """What the 16-bit latency field gives back: whole ms, clamped."""
    latency_ms = np.asarray(latency_ms, dtype=float)
    finite = np.isfinite(latency_ms)
    out = np.full(latency_ms.shape, np.inf)
    out[finite] = np.rint(np.clip(latency_ms[finite], 0, MAX_ENCODABLE_LATENCY_MS))
    return out


def _check_ids(ids: Sequence[int]) -> None:
    for node in ids:
        if not 0 <= node <= 0xFFFF:
            raise WireFormatError(f"node IDs must fit in 16 bits: {node}")


def _check_count(count: int) -> None:
    if count > 0xFFFF:
        raise WireFormatError("entry counts must fit in 16 bits")


def _check_u32(what: str, *values: int) -> None:
    for value in values:
        if not 0 <= value <= 0xFFFFFFFF:
            raise WireFormatError(f"{what} must fit in 32 bits: {value}")


def _expect(data: bytes, expected: int, what: str) -> None:
    if len(data) != expected:
        raise WireFormatError(f"{what} is {len(data)} bytes, expected {expected}")


def _encode_ids(ids: Sequence[int]) -> bytes:
    _check_ids(ids)
    return struct.pack(f">{len(ids)}H", *ids)


def _decode_ids(data: bytes, offset: int, count: int) -> Tuple[int, ...]:
    return struct.unpack_from(f">{count}H", data, offset)


# ----------------------------------------------------------------------
# Link-state and recommendation payloads (§5)
# ----------------------------------------------------------------------
def encode_linkstate(
    latency_ms: np.ndarray,
    alive: np.ndarray,
    loss: np.ndarray,
) -> bytes:
    """Encode one link-state row into its 3-bytes-per-entry wire form.

    Entries that are not alive or have no finite latency carry the
    ``LATENCY_DEAD`` sentinel; the alive bit is ``alive`` either way.
    """
    latency_ms = np.asarray(latency_ms, dtype=float)
    alive = np.asarray(alive, dtype=bool)
    loss = np.asarray(loss, dtype=float)
    n = latency_ms.shape[0]
    if alive.shape != (n,) or loss.shape != (n,):
        raise WireFormatError("latency, alive, and loss must have equal length")
    if np.any((loss < 0) | (loss > 1)):
        raise WireFormatError("loss values must be probabilities")
    dead = ~alive | ~np.isfinite(latency_ms)
    entries = np.empty(n, dtype=_LINKSTATE_ENTRY)
    lat = np.clip(np.where(dead, 0, latency_ms), 0, MAX_ENCODABLE_LATENCY_MS)
    entries["latency"] = np.where(dead, LATENCY_DEAD, np.rint(lat))
    live = np.rint(loss * 100.0).astype(np.uint8) & _LOSS_MASK
    entries["live"] = np.where(alive, live | _ALIVE_BIT, live)
    return entries.tobytes()


def decode_linkstate(data: bytes, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_linkstate`.

    Returns ``(latency_ms, alive, loss)`` where the sentinel decodes to
    ``inf`` latency.
    """
    _expect(data, _LINKSTATE_ENTRY.itemsize * n, "link-state payload")
    entries = np.frombuffer(data, dtype=_LINKSTATE_ENTRY)
    raw = entries["latency"].astype(float)
    alive = (entries["live"] & _ALIVE_BIT) != 0
    loss = (entries["live"] & _LOSS_MASK) / 100.0
    return np.where(raw == LATENCY_DEAD, np.inf, raw), alive, loss


def encode_recommendations(entries: Sequence[Tuple[int, int]]) -> bytes:
    """Encode ``(destination, one_hop)`` entries, 4 bytes per entry."""
    flat = np.asarray(entries, dtype=np.int64).reshape(-1)
    if np.any((flat < 0) | (flat > 0xFFFF)):
        raise WireFormatError(f"node IDs must fit in 16 bits: {entries}")
    return flat.astype(">u2").tobytes()


def decode_recommendations(data: bytes) -> List[Tuple[int, int]]:
    """Inverse of :func:`encode_recommendations`."""
    if len(data) % (2 * _ID.size) != 0:
        raise WireFormatError(
            f"recommendation payload length {len(data)} not a multiple of 4"
        )
    ids = _decode_ids(data, 0, len(data) // _ID.size)
    return list(zip(ids[::2], ids[1::2]))


# ----------------------------------------------------------------------
# Membership payloads
# ----------------------------------------------------------------------
def encode_view_delta(
    from_version: int,
    to_version: int,
    joined: Sequence[int],
    left: Sequence[int],
) -> bytes:
    """Encode one membership delta into its compact wire form.

    Layout: ``from_version`` and ``to_version`` (4 B each), joined and
    left counts (2 B each), then the joined IDs followed by the left IDs
    (2 B each) — ``wire.membership_delta_message_bytes`` minus the header.
    """
    _check_u32("view versions", from_version, to_version)
    _check_count(max(len(joined), len(left)))
    head = _DELTA_HEAD.pack(from_version, to_version, len(joined), len(left))
    return head + _encode_ids(tuple(joined) + tuple(left))


def decode_view_delta(data: bytes) -> Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]:
    """Inverse of :func:`encode_view_delta`.

    Returns ``(from_version, to_version, joined, left)``.
    """
    if len(data) < _DELTA_HEAD.size:
        raise WireFormatError(f"delta payload too short: {len(data)} bytes")
    from_version, to_version, n_joined, n_left = _DELTA_HEAD.unpack_from(data)
    _expect(data, _DELTA_HEAD.size + _ID.size * (n_joined + n_left), "delta payload")
    ids = _decode_ids(data, _DELTA_HEAD.size, n_joined + n_left)
    return from_version, to_version, ids[:n_joined], ids[n_joined:]


# ----------------------------------------------------------------------
# Gossip payloads
# ----------------------------------------------------------------------
def _encode_id_u32_pairs(pairs: Sequence[Tuple[int, int]], what: str) -> bytes:
    out = bytearray()
    for node, value in pairs:
        _check_ids((node,))
        _check_u32(what, value)
        out += _ID_U32.pack(node, value)
    return bytes(out)


def _decode_id_u32_pairs(data: bytes, offset: int, count: int) -> Tuple[Tuple[int, int], ...]:
    return tuple(
        _ID_U32.unpack_from(data, offset + _ID_U32.size * k) for k in range(count)
    )


def _check_action(action: int) -> None:
    if not 1 <= action <= 3:
        raise WireFormatError(f"unknown gossip op action: {action}")


def encode_gossip_digest(
    vv: Sequence[Tuple[int, int]],
    heartbeats: Sequence[Tuple[int, int]],
) -> bytes:
    """Encode a gossip digest payload.

    Layout: vv count and heartbeat count (2 B each), then the version
    vector as ``(origin, seq)`` pairs and the heartbeat vector as
    ``(member, heartbeat)`` pairs — 6 bytes per entry each
    (``wire.gossip_digest_message_bytes`` minus the header).
    """
    _check_count(max(len(vv), len(heartbeats)))
    return (
        struct.pack(">HH", len(vv), len(heartbeats))
        + _encode_id_u32_pairs(vv, "version-vector seqs")
        + _encode_id_u32_pairs(heartbeats, "heartbeat counters")
    )


def decode_gossip_digest(
    data: bytes,
) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]:
    """Inverse of :func:`encode_gossip_digest` → ``(vv, heartbeats)``."""
    fixed = 2 * _COUNT.size
    if len(data) < fixed:
        raise WireFormatError(f"gossip digest too short: {len(data)} bytes")
    n_vv, n_hb = struct.unpack_from(">HH", data, 0)
    _expect(data, fixed + _ID_U32.size * (n_vv + n_hb), "gossip digest")
    vv = _decode_id_u32_pairs(data, fixed, n_vv)
    heartbeats = _decode_id_u32_pairs(data, fixed + _ID_U32.size * n_vv, n_hb)
    return vv, heartbeats


def encode_gossip_ops(
    ops: Sequence[Tuple[int, int, int, int, int]],
) -> bytes:
    """Encode a membership-op replay payload.

    Each op is ``(origin, seq, action, target, stamp)``: origin ID and
    per-origin sequence locate the op in the origin's log; the action
    byte (1 = join, 2 = leave, 3 = expire) plus target ID and
    incarnation stamp are the op body — 13 bytes per op
    (``wire.gossip_ops_message_bytes`` minus the header).
    """
    _check_count(len(ops))
    out = bytearray(_COUNT.pack(len(ops)))
    for origin, seq, action, target, stamp in ops:
        _check_ids((origin, target))
        _check_u32("op seq/stamp", seq, stamp)
        _check_action(action)
        out += _OP.pack(origin, seq, action, target, stamp)
    return bytes(out)


def decode_gossip_ops(data: bytes) -> Tuple[Tuple[int, int, int, int, int], ...]:
    """Inverse of :func:`encode_gossip_ops`."""
    if len(data) < _COUNT.size:
        raise WireFormatError(f"gossip ops payload too short: {len(data)} bytes")
    (count,) = _COUNT.unpack_from(data)
    _expect(data, _COUNT.size + _OP.size * count, "gossip ops payload")
    ops = tuple(_OP.unpack_from(data, _COUNT.size + _OP.size * k) for k in range(count))
    for op in ops:
        _check_action(op[2])
    return ops


# ----------------------------------------------------------------------
# Whole messages: (header flags, payload) and back
# ----------------------------------------------------------------------
Encoder = Callable[[Message], Tuple[int, bytes]]
Decoder = Callable[[int, bytes], Dict[str, object]]


def _epoch_prefix(epoch: int) -> Tuple[int, bytes]:
    """The header flags and leading payload of an optional epoch."""
    if not epoch:
        return 0, b""
    _check_u32("epochs", epoch)
    return EPOCH_FLAG, _U32.pack(epoch)


def _split_epoch(flags: int, data: bytes) -> Tuple[int, bytes]:
    if not flags & EPOCH_FLAG:
        return 0, data
    if len(data) < _U32.size:
        raise WireFormatError(f"payload too short for its epoch: {len(data)} bytes")
    return _U32.unpack_from(data)[0], data[_U32.size :]


def _enc_linkstate(msg: LinkStateMessage) -> Tuple[int, bytes]:
    row = msg.row
    return 0, encode_linkstate(row.latency_ms, row.alive, np.zeros(row.latency_ms.size))


def _dec_linkstate(flags: int, data: bytes) -> Dict[str, object]:
    latency, alive, _ = decode_linkstate(data, len(data) // _LINKSTATE_ENTRY.itemsize)
    return {"row.latency_ms": latency, "row.alive": alive}


def _enc_recommendation(msg: RecommendationMessage) -> Tuple[int, bytes]:
    return 0, encode_recommendations(msg.entries)


def _dec_recommendation(flags: int, data: bytes) -> Dict[str, object]:
    entries = np.array(decode_recommendations(data), dtype=np.int64).reshape(-1, 2)
    return {"entries": entries}


def _enc_update(msg: MembershipUpdate) -> Tuple[int, bytes]:
    flags, head = _epoch_prefix(msg.epoch)
    return flags, head + _encode_ids(msg.members)


def _dec_update(flags: int, data: bytes) -> Dict[str, object]:
    epoch, data = _split_epoch(flags, data)
    if len(data) % _ID.size:
        raise WireFormatError(f"member list is {len(data)} bytes, not whole IDs")
    return {"epoch": epoch, "members": _decode_ids(data, 0, len(data) // _ID.size)}


def _enc_delta(msg: MembershipDelta) -> Tuple[int, bytes]:
    flags, head = _epoch_prefix(msg.epoch)
    body = encode_view_delta(msg.from_version, msg.to_version, msg.joined, msg.left)
    return flags, head + body


def _dec_delta(flags: int, data: bytes) -> Dict[str, object]:
    epoch, data = _split_epoch(flags, data)
    from_version, to_version, joined, left = decode_view_delta(data)
    return {
        "epoch": epoch,
        "from_version": from_version,
        "to_version": to_version,
        "joined": joined,
        "left": left,
    }


def _enc_refresh(msg: MembershipRefresh) -> Tuple[int, bytes]:
    flags, head = _epoch_prefix(msg.epoch)
    _check_u32("view versions", msg.view_version)
    return flags, head + _U32.pack(msg.view_version)


def _dec_refresh(flags: int, data: bytes) -> Dict[str, object]:
    epoch, data = _split_epoch(flags, data)
    _expect(data, _U32.size, "refresh payload")
    return {"epoch": epoch, "view_version": _U32.unpack(data)[0]}


def _enc_ack(msg: MembershipAck) -> Tuple[int, bytes]:
    _check_u32("epochs and versions", msg.epoch, msg.version)
    _check_ids((msg.leader,))
    return 0, _ACK.pack(msg.epoch, msg.version, msg.leader)


def _dec_ack(flags: int, data: bytes) -> Dict[str, object]:
    _expect(data, _ACK.size, "ack payload")
    epoch, version, leader = _ACK.unpack(data)
    return {"epoch": epoch, "version": version, "leader": leader}


def _enc_sync(msg: Message) -> Tuple[int, bytes]:
    _check_u32("epochs and versions", msg.epoch, msg.version)
    return 0, _SYNC.pack(msg.epoch, msg.version)


def _dec_sync(flags: int, data: bytes) -> Dict[str, object]:
    _expect(data, _SYNC.size, "coordinator sync payload")
    epoch, version = _SYNC.unpack(data)
    return {"epoch": epoch, "version": version}


def _enc_replicate(msg: CoordinatorReplicate) -> Tuple[int, bytes]:
    _check_u32("epochs", msg.epoch)
    head = _U32.pack(msg.epoch)
    if not msg.is_delta:
        return SNAPSHOT_FLAG, head + _encode_ids(msg.members)
    return 0, head + encode_view_delta(msg.from_version, msg.version, msg.joined, msg.left)


def _dec_replicate(flags: int, data: bytes) -> Dict[str, object]:
    epoch, data = _split_epoch(EPOCH_FLAG, data)
    if flags & SNAPSHOT_FLAG:
        fields = _dec_update(0, data)
        fields.update({"epoch": epoch, "from_version": -1, "joined": (), "left": ()})
        return fields
    from_version, version, joined, left = decode_view_delta(data)
    return {
        "epoch": epoch,
        "version": version,
        "members": (),
        "from_version": from_version,
        "joined": joined,
        "left": left,
    }


def _enc_digest(msg: GossipDigest) -> Tuple[int, bytes]:
    return 0, encode_gossip_digest(msg.vv, msg.heartbeats)


def _dec_digest(flags: int, data: bytes) -> Dict[str, object]:
    vv, heartbeats = decode_gossip_digest(data)
    return {"vv": vv, "heartbeats": heartbeats}


def _enc_pull(msg: GossipPull) -> Tuple[int, bytes]:
    _check_count(len(msg.ranges))
    return 0, _COUNT.pack(len(msg.ranges)) + _encode_id_u32_pairs(msg.ranges, "seqs")


def _dec_pull(flags: int, data: bytes) -> Dict[str, object]:
    if len(data) < _COUNT.size:
        raise WireFormatError(f"gossip pull too short: {len(data)} bytes")
    (count,) = _COUNT.unpack_from(data)
    _expect(data, _COUNT.size + _ID_U32.size * count, "gossip pull")
    return {"ranges": _decode_id_u32_pairs(data, _COUNT.size, count)}


def _enc_ops(msg: GossipOps) -> Tuple[int, bytes]:
    return 0, encode_gossip_ops(msg.ops)


def _dec_ops(flags: int, data: bytes) -> Dict[str, object]:
    return {"ops": decode_gossip_ops(data)}


def _enc_snapshot(msg: GossipSnapshot) -> Tuple[int, bytes]:
    """Counts of vv, records and heartbeats (2 B each), then the three
    lists; a record is ``(target, stamp, action, op_origin)``, 9 B."""
    _check_count(max(len(msg.vv), len(msg.records), len(msg.heartbeats)))
    out = bytearray(struct.pack(">HHH", len(msg.vv), len(msg.records), len(msg.heartbeats)))
    out += _encode_id_u32_pairs(msg.vv, "version-vector seqs")
    for target, stamp, action, op_origin in msg.records:
        _check_ids((target, op_origin))
        _check_u32("incarnation stamps", stamp)
        _check_action(action)
        out += _RECORD.pack(target, stamp, action, op_origin)
    out += _encode_id_u32_pairs(msg.heartbeats, "heartbeat counters")
    return 0, bytes(out)


def _dec_snapshot(flags: int, data: bytes) -> Dict[str, object]:
    fixed = 3 * _COUNT.size
    if len(data) < fixed:
        raise WireFormatError(f"gossip snapshot too short: {len(data)} bytes")
    n_vv, n_rec, n_hb = struct.unpack_from(">HHH", data, 0)
    _expect(
        data,
        fixed + _ID_U32.size * (n_vv + n_hb) + _RECORD.size * n_rec,
        "gossip snapshot",
    )
    vv = _decode_id_u32_pairs(data, fixed, n_vv)
    at = fixed + _ID_U32.size * n_vv
    records = tuple(
        _RECORD.unpack_from(data, at + _RECORD.size * k) for k in range(n_rec)
    )
    for record in records:
        _check_action(record[2])
    heartbeats = _decode_id_u32_pairs(data, at + _RECORD.size * n_rec, n_hb)
    return {"vv": vv, "records": records, "heartbeats": heartbeats}


#: The encoder and decoder of every message class.
CODECS: Dict[type, Tuple[Encoder, Decoder]] = {
    LinkStateMessage: (_enc_linkstate, _dec_linkstate),
    RecommendationMessage: (_enc_recommendation, _dec_recommendation),
    MembershipUpdate: (_enc_update, _dec_update),
    MembershipDelta: (_enc_delta, _dec_delta),
    MembershipRefresh: (_enc_refresh, _dec_refresh),
    MembershipAck: (_enc_ack, _dec_ack),
    CoordinatorHeartbeat: (_enc_sync, _dec_sync),
    CoordinatorPull: (_enc_sync, _dec_sync),
    CoordinatorReplicate: (_enc_replicate, _dec_replicate),
    GossipDigest: (_enc_digest, _dec_digest),
    GossipPull: (_enc_pull, _dec_pull),
    GossipOps: (_enc_ops, _dec_ops),
    GossipSnapshot: (_enc_snapshot, _dec_snapshot),
}


def encode(msg: Message) -> Tuple[int, bytes]:
    """``(header flags, payload)`` of ``msg``; the header is
    ``HEADER_BYTES`` on top."""
    return CODECS[type(msg)][0](msg)


def decode(cls: type, flags: int, payload: bytes) -> Dict[str, object]:
    """The fields of a ``cls`` message that ``payload`` carries, by name
    (:func:`message_fields` minus :func:`header_fields`)."""
    return CODECS[cls][1](flags, payload)
