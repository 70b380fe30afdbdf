"""The gossip engine with per-op bootstrap seeding and deque op logs.

:class:`DequeLogEngine` is a
:class:`~repro.overlay.gossip.GossipMembershipNode` that seeds itself by
replaying one join op per initial member through ``_apply_op`` (n ops
per engine, n^2 per plane) and keeps each origin's op log as its own
``deque(maxlen=LOG_OPS)``. Everything else is the engine's own code, so
a test can drive an engine and this oracle through the same messages
and compare state, sends and served ranges step by step. The plane
seeds every engine from one shared bootstrap and keeps list logs that
start from a shared prefix (``repro.overlay.gossip``, "State layout").
"""

from collections import deque
from typing import List, Optional, Sequence

from repro.overlay import gossip
from repro.overlay.gossip import OP_JOIN, GossipMembershipNode, Op


class DequeLogEngine(GossipMembershipNode):
    """A gossip engine seeded op by op, with deque op logs."""

    def seed_bootstrap(self, members: Sequence[int]) -> None:
        """One join op per initial member, as if each had introduced
        itself; every engine of a plane runs this with the same members."""
        now = self.sim.now
        for member in sorted(members):
            self._apply_op(member, 1, OP_JOIN, member, 1)
            self.hb.setdefault(member, 0)
            self.last_advance[member] = now

    def _apply_op(
        self, origin: int, seq: int, action: int, target: int, stamp: int
    ) -> None:
        log = self.logs.get(origin)
        if log is None:
            log = deque(maxlen=gossip.LOG_OPS)
            self.logs[origin] = log
        log.append((seq, action, target, stamp))
        self.vv[origin] = seq
        self._vv_changed()
        self._merge_record(target, (stamp, action, origin))

    def _collect_range(self, origin: int, have: int, top: int) -> Optional[List[Op]]:
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
