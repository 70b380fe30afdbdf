"""Compact wire sizes for routing messages (§5 "Table Exchange").

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

Multi-hop link state appends a 2-byte ``Sec`` (second-node) identity per
entry, and multi-hop recommendations append a 2-byte path cost, as
required by the §3 multi-hop extension.

This module holds the byte constants and the size formulas only: no run
serialises a message. The byte layouts those sizes stand for are
``tests/overlay/reference_wire.py``, which every datagram of a test run
of each membership plane is held to.
"""

from __future__ import annotations

__all__ = [
    "HEADER_BYTES",
    "LINKSTATE_ENTRY_BYTES",
    "RECOMMENDATION_ENTRY_BYTES",
    "MULTIHOP_LS_ENTRY_BYTES",
    "MULTIHOP_REC_ENTRY_BYTES",
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
    "linkstate_message_bytes",
    "recommendation_message_bytes",
    "membership_message_bytes",
    "membership_delta_message_bytes",
    "coordinator_replicate_message_bytes",
    "gossip_digest_message_bytes",
    "gossip_pull_message_bytes",
    "gossip_ops_message_bytes",
    "gossip_snapshot_message_bytes",
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
