"""Compact wire formats for routing messages (§5 "Table Exchange").

The paper's implementation exchanges link-state tables using two bytes for
latency (milliseconds) and one byte for liveness and loss, so a link-state
message payload is ``3 n`` bytes. A recommendation message carries, per
entry, a 2-byte destination ID and a 2-byte one-hop ID (4 bytes/entry).

The per-message header constant (UDP/IP plus the application header) is
calibrated to **46 bytes**, which makes the closed-form bandwidth figures
in §6.1 come out exactly as printed in the paper:

* probing (in+out):            ``49.1 n``  bps
* full-mesh routing (in+out):  ``1.6 n^2 + 24.5 n``  bps
* quorum routing (in+out):     ``6.4 n^1.5 + 17.1 n + 196.3 sqrt(n)`` bps

Encoding notes:

* latency is clamped to 16 bits; the sentinel ``0xFFFF`` means "dead /
  unreachable" and decodes to ``inf``;
* the liveness byte packs an alive flag (bit 7) and loss percentage in
  [0, 100] (bits 0-6);
* multi-hop link state appends a 2-byte ``Sec`` (second-node) identity per
  entry, and multi-hop recommendations append a 2-byte path cost, as
  required by the §3 multi-hop extension.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import WireFormatError

__all__ = [
    "HEADER_BYTES",
    "LINKSTATE_ENTRY_BYTES",
    "RECOMMENDATION_ENTRY_BYTES",
    "MULTIHOP_LS_ENTRY_BYTES",
    "MULTIHOP_REC_ENTRY_BYTES",
    "ASYMMETRIC_LS_ENTRY_BYTES",
    "PROBE_BYTES",
    "NODE_ID_BYTES",
    "VIEW_VERSION_BYTES",
    "EPOCH_BYTES",
    "DELTA_COUNT_BYTES",
    "MEMBERSHIP_REFRESH_BYTES",
    "MEMBERSHIP_ACK_BYTES",
    "COORDINATOR_SYNC_BYTES",
    "GOSSIP_COUNT_BYTES",
    "GOSSIP_VV_ENTRY_BYTES",
    "GOSSIP_OP_BYTES",
    "GOSSIP_RECORD_BYTES",
    "GOSSIP_STAMP_BYTES",
    "LATENCY_DEAD",
    "MAX_ENCODABLE_LATENCY_MS",
    "linkstate_message_bytes",
    "recommendation_message_bytes",
    "membership_message_bytes",
    "membership_delta_message_bytes",
    "membership_refresh_message_bytes",
    "membership_ack_message_bytes",
    "coordinator_sync_message_bytes",
    "coordinator_replicate_message_bytes",
    "gossip_digest_message_bytes",
    "gossip_pull_message_bytes",
    "gossip_ops_message_bytes",
    "gossip_snapshot_message_bytes",
    "encode_linkstate",
    "decode_linkstate",
    "encode_recommendations",
    "decode_recommendations",
    "encode_view_delta",
    "decode_view_delta",
    "encode_gossip_digest",
    "decode_gossip_digest",
    "encode_gossip_ops",
    "decode_gossip_ops",
]

#: Per-message overhead (UDP/IP + application header), calibrated to the
#: paper's bandwidth coefficients — see module docstring.
HEADER_BYTES = 46

#: 2 B latency + 1 B liveness/loss per destination (§5).
LINKSTATE_ENTRY_BYTES = 3

#: 2 B destination ID + 2 B one-hop ID per recommendation (§5).
RECOMMENDATION_ENTRY_BYTES = 4

#: Multi-hop link state adds a 2 B Sec identity per entry (§3).
MULTIHOP_LS_ENTRY_BYTES = LINKSTATE_ENTRY_BYTES + 2

#: Asymmetric link state carries both directions' latency (§3 footnote
#: 2): 2 B outgoing + 2 B incoming + 1 B liveness/loss per entry.
ASYMMETRIC_LS_ENTRY_BYTES = LINKSTATE_ENTRY_BYTES + 2

#: Multi-hop recommendations add a 2 B path cost per entry (§3).
MULTIHOP_REC_ENTRY_BYTES = RECOMMENDATION_ENTRY_BYTES + 2

#: A probe (or probe reply) is a bare header.
PROBE_BYTES = HEADER_BYTES

#: Node IDs are 2-byte integers (§5).
NODE_ID_BYTES = 2

#: Membership view versions are 4-byte integers (they grow without
#: bound under churn, unlike node IDs).
VIEW_VERSION_BYTES = 4

#: A membership delta carries 2-byte joined/left counts.
DELTA_COUNT_BYTES = 2

#: Coordinator epochs (replicated membership) are 4-byte integers, like
#: view versions. Epoch 0 is the unreplicated deployment, which omits
#: the field entirely (a header flag bit), so single-coordinator runs
#: cost exactly what they did before replication existed.
EPOCH_BYTES = VIEW_VERSION_BYTES

#: An in-band membership refresh is a bare header plus the sender's held
#: view version — the piggyback the coordinator uses to detect version
#: gaps left by lost view updates.
MEMBERSHIP_REFRESH_BYTES = HEADER_BYTES + VIEW_VERSION_BYTES

#: A refresh acknowledgement (replicated membership only): header plus
#: the coordinator's epoch and published version plus the 2-byte address
#: of the coordinator it believes is primary (the leader hint members
#: use to repoint after a failover).
MEMBERSHIP_ACK_BYTES = HEADER_BYTES + EPOCH_BYTES + VIEW_VERSION_BYTES + NODE_ID_BYTES

#: Coordinator-to-coordinator control (heartbeat / pull): header plus
#: the sender's epoch and view version.
COORDINATOR_SYNC_BYTES = HEADER_BYTES + EPOCH_BYTES + VIEW_VERSION_BYTES

#: Gossip messages carry 2-byte entry counts (like delta counts).
GOSSIP_COUNT_BYTES = DELTA_COUNT_BYTES

#: One version-vector (or heartbeat-vector) entry: a 2-byte origin node
#: ID plus a 4-byte per-origin sequence (or heartbeat counter).
GOSSIP_VV_ENTRY_BYTES = NODE_ID_BYTES + VIEW_VERSION_BYTES

#: Incarnation stamps (SWIM-style per-target refutation counters) are
#: 4-byte integers: they grow with each leave/rejoin cycle of a member.
GOSSIP_STAMP_BYTES = 4

#: One replayed membership op: origin ID (2 B), per-origin seq (4 B),
#: action byte, target ID (2 B), incarnation stamp (4 B).
GOSSIP_OP_BYTES = (
    NODE_ID_BYTES + VIEW_VERSION_BYTES + 1 + NODE_ID_BYTES + GOSSIP_STAMP_BYTES
)

#: One resolved snapshot record: target ID (2 B), winning incarnation
#: stamp (4 B), winning action byte, op-origin ID (2 B). Snapshots carry
#: resolved per-target state, not the op history, so their size is
#: O(members ever seen), not O(ops).
GOSSIP_RECORD_BYTES = NODE_ID_BYTES + GOSSIP_STAMP_BYTES + 1 + NODE_ID_BYTES

#: Wire sentinel for a dead/unreachable destination.
LATENCY_DEAD = 0xFFFF

#: Largest finite latency the 16-bit field can carry.
MAX_ENCODABLE_LATENCY_MS = LATENCY_DEAD - 1

_ALIVE_BIT = 0x80
_LOSS_MASK = 0x7F


def linkstate_message_bytes(n: int, multihop: bool = False) -> int:
    """Wire size of a link-state message covering ``n`` destinations."""
    entry = MULTIHOP_LS_ENTRY_BYTES if multihop else LINKSTATE_ENTRY_BYTES
    return HEADER_BYTES + entry * n

def recommendation_message_bytes(entries: int, multihop: bool = False) -> int:
    """Wire size of a recommendation message with ``entries`` entries."""
    entry = MULTIHOP_REC_ENTRY_BYTES if multihop else RECOMMENDATION_ENTRY_BYTES
    return HEADER_BYTES + entry * entries

def membership_message_bytes(members: int) -> int:
    """Wire size of a membership view message listing ``members`` IDs."""
    return HEADER_BYTES + NODE_ID_BYTES * members

def membership_delta_message_bytes(joined: int, left: int) -> int:
    """Wire size of a membership *delta* message.

    Header, the ``from``/``to`` view versions, two change counts, and one
    node ID per changed member — O(changes), independent of overlay size
    (a full view is O(n); this is what makes incremental membership
    affordable at n >= 1000).
    """
    return (
        HEADER_BYTES
        + 2 * VIEW_VERSION_BYTES
        + 2 * DELTA_COUNT_BYTES
        + NODE_ID_BYTES * (joined + left)
    )

def membership_refresh_message_bytes() -> int:
    """Wire size of a membership refresh (heartbeat + version piggyback)."""
    return MEMBERSHIP_REFRESH_BYTES

def membership_ack_message_bytes() -> int:
    """Wire size of a refresh acknowledgement (replicated membership)."""
    return MEMBERSHIP_ACK_BYTES

def coordinator_sync_message_bytes() -> int:
    """Wire size of a coordinator heartbeat or log-pull request."""
    return COORDINATOR_SYNC_BYTES

def coordinator_replicate_message_bytes(
    members: int, joined: int, left: int, delta: bool
) -> int:
    """Wire size of a primary-to-replica log replication message.

    A replicated transition is the corresponding member-facing update
    (delta or full view) plus the primary's 4-byte epoch.
    """
    inner = (
        membership_delta_message_bytes(joined, left)
        if delta
        else membership_message_bytes(members)
    )
    return inner + EPOCH_BYTES


def gossip_digest_message_bytes(vv_entries: int, hb_entries: int) -> int:
    """Wire size of a gossip digest (version vector + heartbeat vector)."""
    return (
        HEADER_BYTES
        + 2 * GOSSIP_COUNT_BYTES
        + GOSSIP_VV_ENTRY_BYTES * (vv_entries + hb_entries)
    )

def gossip_pull_message_bytes(ranges: int) -> int:
    """Wire size of an anti-entropy pull requesting ``ranges`` origins."""
    return HEADER_BYTES + GOSSIP_COUNT_BYTES + GOSSIP_VV_ENTRY_BYTES * ranges

def gossip_ops_message_bytes(ops: int) -> int:
    """Wire size of a membership-op replay carrying ``ops`` ops."""
    return HEADER_BYTES + GOSSIP_COUNT_BYTES + GOSSIP_OP_BYTES * ops

def gossip_snapshot_message_bytes(
    vv_entries: int, records: int, hb_entries: int
) -> int:
    """Wire size of a full resolved-state gossip snapshot."""
    return (
        HEADER_BYTES
        + 3 * GOSSIP_COUNT_BYTES
        + GOSSIP_VV_ENTRY_BYTES * (vv_entries + hb_entries)
        + GOSSIP_RECORD_BYTES * records
    )


# ----------------------------------------------------------------------
# Link-state codec
# ----------------------------------------------------------------------
def encode_linkstate(
    latency_ms: np.ndarray,
    alive: np.ndarray,
    loss: np.ndarray,
) -> bytes:
    """Encode one link-state row into its 3-bytes-per-entry wire form.

    ``latency_ms`` may contain ``inf`` for unreachable destinations; those
    entries are encoded with the dead sentinel regardless of ``alive``.
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
    lat = np.clip(np.where(dead, 0, latency_ms), 0, MAX_ENCODABLE_LATENCY_MS)
    lat = np.rint(lat).astype(np.uint16)
    lat[dead] = LATENCY_DEAD

    live_byte = np.rint(loss * 100.0).astype(np.uint8) & _LOSS_MASK
    live_byte[~dead] |= _ALIVE_BIT

    out = bytearray()
    for k in range(n):
        out += struct.pack(">HB", int(lat[k]), int(live_byte[k]))
    return bytes(out)


def decode_linkstate(data: bytes, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_linkstate`.

    Returns ``(latency_ms, alive, loss)`` where dead entries decode to
    ``inf`` latency.
    """
    expected = LINKSTATE_ENTRY_BYTES * n
    if len(data) != expected:
        raise WireFormatError(
            f"link-state payload is {len(data)} bytes, expected {expected}"
        )
    latency = np.empty(n, dtype=float)
    alive = np.empty(n, dtype=bool)
    loss = np.empty(n, dtype=float)
    for k in range(n):
        raw_lat, live_byte = struct.unpack_from(">HB", data, k * 3)
        is_alive = bool(live_byte & _ALIVE_BIT) and raw_lat != LATENCY_DEAD
        alive[k] = is_alive
        latency[k] = float(raw_lat) if is_alive else np.inf
        loss[k] = (live_byte & _LOSS_MASK) / 100.0
    return latency, alive, loss


# ----------------------------------------------------------------------
# Recommendation codec
# ----------------------------------------------------------------------
def encode_recommendations(entries: Sequence[Tuple[int, int]]) -> bytes:
    """Encode ``(destination, one_hop)`` entries, 4 bytes per entry."""
    out = bytearray()
    for dst, hop in entries:
        if not (0 <= dst <= 0xFFFF and 0 <= hop <= 0xFFFF):
            raise WireFormatError(f"node IDs must fit in 16 bits: ({dst}, {hop})")
        out += struct.pack(">HH", dst, hop)
    return bytes(out)


def decode_recommendations(data: bytes) -> List[Tuple[int, int]]:
    """Inverse of :func:`encode_recommendations`."""
    if len(data) % RECOMMENDATION_ENTRY_BYTES != 0:
        raise WireFormatError(
            f"recommendation payload length {len(data)} not a multiple of 4"
        )
    return [
        struct.unpack_from(">HH", data, k)
        for k in range(0, len(data), RECOMMENDATION_ENTRY_BYTES)
    ]


# ----------------------------------------------------------------------
# Membership delta codec
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
    (2 B each) — :func:`membership_delta_message_bytes` minus the header.
    """
    if not (0 <= from_version <= 0xFFFFFFFF and 0 <= to_version <= 0xFFFFFFFF):
        raise WireFormatError(
            f"view versions must fit in 32 bits: ({from_version}, {to_version})"
        )
    if len(joined) > 0xFFFF or len(left) > 0xFFFF:
        raise WireFormatError("delta change counts must fit in 16 bits")
    out = bytearray(
        struct.pack(">IIHH", from_version, to_version, len(joined), len(left))
    )
    for member in list(joined) + list(left):
        if not 0 <= member <= 0xFFFF:
            raise WireFormatError(f"node IDs must fit in 16 bits: {member}")
        out += struct.pack(">H", member)
    return bytes(out)


def decode_view_delta(data: bytes) -> Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]:
    """Inverse of :func:`encode_view_delta`.

    Returns ``(from_version, to_version, joined, left)``.
    """
    fixed = 2 * VIEW_VERSION_BYTES + 2 * DELTA_COUNT_BYTES
    if len(data) < fixed:
        raise WireFormatError(f"delta payload too short: {len(data)} bytes")
    from_version, to_version, n_joined, n_left = struct.unpack_from(">IIHH", data, 0)
    expected = fixed + NODE_ID_BYTES * (n_joined + n_left)
    if len(data) != expected:
        raise WireFormatError(
            f"delta payload is {len(data)} bytes, expected {expected}"
        )
    ids = [
        struct.unpack_from(">H", data, fixed + NODE_ID_BYTES * k)[0]
        for k in range(n_joined + n_left)
    ]
    return (
        from_version,
        to_version,
        tuple(ids[:n_joined]),
        tuple(ids[n_joined:]),
    )


# ----------------------------------------------------------------------
# Gossip codecs
# ----------------------------------------------------------------------
def _encode_id_u32_pairs(pairs: Sequence[Tuple[int, int]], what: str) -> bytes:
    out = bytearray()
    for node, value in pairs:
        if not 0 <= node <= 0xFFFF:
            raise WireFormatError(f"node IDs must fit in 16 bits: {node}")
        if not 0 <= value <= 0xFFFFFFFF:
            raise WireFormatError(f"{what} must fit in 32 bits: {value}")
        out += struct.pack(">HI", node, value)
    return bytes(out)


def _decode_id_u32_pairs(data: bytes, offset: int, count: int) -> Tuple[Tuple[int, int], ...]:
    return tuple(
        struct.unpack_from(">HI", data, offset + GOSSIP_VV_ENTRY_BYTES * k)
        for k in range(count)
    )


def encode_gossip_digest(
    vv: Sequence[Tuple[int, int]],
    heartbeats: Sequence[Tuple[int, int]],
) -> bytes:
    """Encode a gossip digest payload.

    Layout: vv count and heartbeat count (2 B each), then the version
    vector as ``(origin, seq)`` pairs and the heartbeat vector as
    ``(member, heartbeat)`` pairs — 6 bytes per entry each
    (:func:`gossip_digest_message_bytes` minus the header).
    """
    if len(vv) > 0xFFFF or len(heartbeats) > 0xFFFF:
        raise WireFormatError("gossip entry counts must fit in 16 bits")
    out = bytearray(struct.pack(">HH", len(vv), len(heartbeats)))
    out += _encode_id_u32_pairs(vv, "version-vector seqs")
    out += _encode_id_u32_pairs(heartbeats, "heartbeat counters")
    return bytes(out)


def decode_gossip_digest(
    data: bytes,
) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]:
    """Inverse of :func:`encode_gossip_digest` → ``(vv, heartbeats)``."""
    fixed = 2 * GOSSIP_COUNT_BYTES
    if len(data) < fixed:
        raise WireFormatError(f"gossip digest too short: {len(data)} bytes")
    n_vv, n_hb = struct.unpack_from(">HH", data, 0)
    expected = fixed + GOSSIP_VV_ENTRY_BYTES * (n_vv + n_hb)
    if len(data) != expected:
        raise WireFormatError(
            f"gossip digest is {len(data)} bytes, expected {expected}"
        )
    vv = _decode_id_u32_pairs(data, fixed, n_vv)
    heartbeats = _decode_id_u32_pairs(
        data, fixed + GOSSIP_VV_ENTRY_BYTES * n_vv, n_hb
    )
    return vv, heartbeats


def encode_gossip_ops(
    ops: Sequence[Tuple[int, int, int, int, int]],
) -> bytes:
    """Encode a membership-op replay payload.

    Each op is ``(origin, seq, action, target, stamp)``: origin ID and
    per-origin sequence locate the op in the origin's log; the action
    byte (1 = join, 2 = leave, 3 = expire) plus target ID and
    incarnation stamp are the op body — 13 bytes per op
    (:func:`gossip_ops_message_bytes` minus the header).
    """
    if len(ops) > 0xFFFF:
        raise WireFormatError("gossip op counts must fit in 16 bits")
    out = bytearray(struct.pack(">H", len(ops)))
    for origin, seq, action, target, stamp in ops:
        if not (0 <= origin <= 0xFFFF and 0 <= target <= 0xFFFF):
            raise WireFormatError(
                f"node IDs must fit in 16 bits: ({origin}, {target})"
            )
        if not (0 <= seq <= 0xFFFFFFFF and 0 <= stamp <= 0xFFFFFFFF):
            raise WireFormatError(
                f"op seq/stamp must fit in 32 bits: ({seq}, {stamp})"
            )
        if not 1 <= action <= 3:
            raise WireFormatError(f"unknown gossip op action: {action}")
        out += struct.pack(">HIBHI", origin, seq, action, target, stamp)
    return bytes(out)


def decode_gossip_ops(data: bytes) -> Tuple[Tuple[int, int, int, int, int], ...]:
    """Inverse of :func:`encode_gossip_ops`."""
    fixed = GOSSIP_COUNT_BYTES
    if len(data) < fixed:
        raise WireFormatError(f"gossip ops payload too short: {len(data)} bytes")
    (count,) = struct.unpack_from(">H", data, 0)
    expected = fixed + GOSSIP_OP_BYTES * count
    if len(data) != expected:
        raise WireFormatError(
            f"gossip ops payload is {len(data)} bytes, expected {expected}"
        )
    ops = []
    for k in range(count):
        origin, seq, action, target, stamp = struct.unpack_from(
            ">HIBHI", data, fixed + GOSSIP_OP_BYTES * k
        )
        if not 1 <= action <= 3:
            raise WireFormatError(f"unknown gossip op action: {action}")
        ops.append((origin, seq, action, target, stamp))
    return tuple(ops)
