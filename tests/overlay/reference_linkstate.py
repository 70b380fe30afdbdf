"""Test-only oracle: a link-state table that copies every row in.

This is the dense ``LinkStateTable`` as it stood before rows became
shared immutable values (PR 17), reduced to its semantics: every
``update_row`` copies the caller's arrays into per-table ``(n, n)``
blocks, and every reader derives its answer from those blocks the slow,
obvious way. ``test_linkstate_shared.py`` holds the reference-holding
tables bitwise equal to it. ``strict`` selects the quorum table's one
difference: gathers over a never-received row raise (``gather_into``
reads one as all-dead in either table).
"""

import numpy as np

from repro.errors import RoutingError


class CopyInTable:
    def __init__(self, n, strict):
        self.n, self.strict = n, strict
        self.latency_ms = np.full((n, n), np.inf)
        self.alive = np.zeros((n, n), dtype=bool)
        self.row_time = np.full(n, -np.inf)
        self.held = set()

    @classmethod
    def of(cls, table, strict):
        """A copy-in table holding what ``table`` holds."""
        ref = cls(table.n, strict)
        for idx in range(table.n):
            row = table.row(idx)
            if row is not None:
                ref.update_row(idx, row.latency_ms, row.alive, 0.0)
        ref.row_time[:] = table.row_time
        return ref

    def update_row(self, idx, latency_ms, alive, now):
        self.latency_ms[idx], self.alive[idx] = latency_ms, alive
        self.row_time[idx] = now
        self.held.add(idx)

    def touch_row(self, idx, now):
        self.row_time[idx] = now

    def row_age(self, idx, now):
        return now - self.row_time[idx]

    def fresh_rows(self, now, max_age):
        return np.where(now - self.row_time <= max_age)[0]

    def sees_alive(self, dst, now, max_age):
        fresh = self.fresh_rows(now, max_age)
        return bool(self.alive[fresh[fresh != dst], dst].any())

    def effective_cost(self, idx):
        row = self.latency_ms[idx].copy()
        row[~self.alive[idx]] = np.inf
        row[idx] = 0.0
        return row

    cost_row = effective_cost

    def cost_matrix(self, indices):
        indices = [int(i) for i in indices]
        if self.strict and not self.held.issuperset(indices):
            raise RoutingError("rows never received")
        rows = [self.effective_cost(i) for i in indices]
        return np.array(rows).reshape(len(indices), self.n)

    def gather_into(self, block):
        # Copies are nobody's row objects: write every column, and leave
        # a token no table holds so that the next visitor rewrites them.
        block.reset(self.n)
        for h in range(self.n):
            block.costs[:, h] = self.effective_cost(h)
        block.held = [object()] * self.n

    def remap(self, survivors_old, survivors_new, n_new):
        new = CopyInTable(n_new, self.strict)
        if len(survivors_old):
            keep_new = np.ix_(survivors_new, survivors_new)
            keep_old = np.ix_(survivors_old, survivors_old)
            new.latency_ms[keep_new] = self.latency_ms[keep_old]
            new.alive[keep_new] = self.alive[keep_old]
            new.row_time[survivors_new] = self.row_time[survivors_old]
        moved = dict(zip(np.asarray(survivors_old).tolist(), np.asarray(survivors_new).tolist()))
        new.held = {moved[i] for i in self.held if i in moved}
        return new
