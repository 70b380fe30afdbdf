"""Partial link-state tables (§5 "Table Exchange").

Each node maintains a partial ``n x n`` picture of estimated latency
and liveness: its own row comes from the link monitor, the other
rows arrive via table exchanges (all rows in the full-mesh system; the
rendezvous clients' rows in the quorum system). Row receive-times are
tracked so the rendezvous can honor the "use measurements from the last
3 routing intervals" rule (§6.2.2) and so stale rows age out.

**A published row is a value.** A :class:`LinkStateRow` is built once —
by the router, from its monitor, or from arrays a caller hands in, which
are copied — put in *effective* form (dead links ``inf``, own diagonal
``0``) and frozen: its arrays are read-only and nothing writes to it
again. A table is a map ``view position -> row`` of *references* plus
the dense ``row_time`` vector. The router installs its row in its own
table and publishes that same object in every
:class:`~repro.net.packet.LinkStateMessage` until its monitor changes;
every receiver's table points at it. In this one-process simulation a
row that 2 sqrt(n) rendezvous servers (or all ``n - 1`` full-mesh peers)
hold therefore exists once, not once per receiver, and "did this row
change" is an identity test on :meth:`row`. The all-dead row of a
position never heard from is shared too: it is a window into one
read-only vector per table size (:func:`_unheard_window`). Only
:meth:`remap` builds new rows, because a view change moves columns —
and it too builds each one once: the first holder to apply a delta to a
shared row leaves the moved row on it for the rest.

Readers gather what they need per call — :meth:`cost_matrix` concatenates
the requested rows into a fresh ``(k, n)`` block, the point readers pick
single entries — except the one reader that wants *every* row on *every*
call: the full-mesh route kernel, which the ground-truth sampler runs on
each of ``n`` routers per sample. For it a gathered block, too, exists
once per overlay: a :class:`RowBlock` whose column ``h`` is the cost row
held for ``h``, beside the list of row objects its columns were written
from. :meth:`gather_into` rewrites a column only where the visiting
table's row *is not* the object already there. That identity test is
sound because rows are frozen — the same object has the same bytes, so
the patched block is bitwise ``cost_matrix(arange(n)).T`` — and it pays
because the ``n`` full-mesh tables of one overlay hold the same ``n``
published objects except where a broadcast is still in flight: a few
columns move per visit where ``n`` rows were copied. The block belongs
to the overlay (:func:`~repro.overlay.harness.build_overlay` hands it to
every router), never to a table or to the module: a node's table reaches
no ``(n, n)`` array, and dropping the overlay frees its rows.
:meth:`nbytes` reports the *logical* footprint — what a
deployed node, which cannot share memory with its peers, would hold: a
quorum node's ~2 sqrt(n) rows cost O(n^1.5), the full-mesh node's ``n``
rows O(n^2), which is the point of the paper's design.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

import numpy as np

from repro.errors import RoutingError

__all__ = ["LinkStateRow", "LinkStateTable", "RowBlock", "SparseLinkStateTable"]

#: :func:`_unheard_window`'s vectors, by table size.
_UNHEARD_OF_SIZE: Dict[int, np.ndarray] = {}


def _unheard_window(n: int) -> np.ndarray:
    """The read-only ``(2n - 1)`` vector every never-received row of a
    size-``n`` table is a window into: ``inf`` everywhere, ``0`` in the
    middle. Built once per size and process; like
    :meth:`~repro.core.grid.GridQuorum.of_size`'s grids, each entry is a
    pure function of ``n``.
    """
    window = _UNHEARD_OF_SIZE.get(n)
    if window is None:
        window = np.full(2 * n - 1, np.inf)
        window[n - 1] = 0.0
        window.flags.writeable = False
        _UNHEARD_OF_SIZE[n] = window
    return window


class LinkStateRow:
    """One node's link state as published: immutable once built.

    ``latency_ms`` is in effective form — ``inf`` where ``alive`` is
    False, ``0.0`` at ``idx``, the view position of the node the row
    describes. Both arrays are read-only; build a new row instead of
    writing into one.
    """

    __slots__ = ("idx", "latency_ms", "alive", "_moved_by", "_moved", "__weakref__")

    def __init__(self, idx: int, latency_ms: np.ndarray, alive: np.ndarray):
        """Copy the caller's arrays in, normalise them, freeze the copies."""
        latency_ms = np.array(latency_ms, dtype=np.float64)
        alive = np.array(alive, dtype=bool)
        if latency_ms.ndim != 1 or not 0 <= idx < latency_ms.size:
            raise RoutingError(
                f"row index {idx} out of range for a row of shape {latency_ms.shape}"
            )
        if alive.shape != latency_ms.shape:
            raise RoutingError(
                f"alive {alive.shape} does not match latency {latency_ms.shape}"
            )
        latency_ms[~alive] = np.inf
        latency_ms[idx] = 0.0
        latency_ms.flags.writeable = alive.flags.writeable = False
        self._set(idx, latency_ms, alive)

    def _set(self, idx: int, latency_ms: np.ndarray, alive: np.ndarray) -> None:
        self.idx = idx
        self.latency_ms = latency_ms
        self.alive = alive
        # The row a view delta turned this one into (``_RowTable.remap``),
        # kept on the row so that every table holding it shares one
        # computation — weakly, or a table that is never remapped again
        # (a departed node's) would keep every later generation of its
        # rows alive through it.
        self._moved_by: Optional[bytes] = None
        self._moved: Optional["weakref.ref[LinkStateRow]"] = None

    @classmethod
    def _adopt(cls, idx: int, latency_ms: np.ndarray, alive: np.ndarray) -> "LinkStateRow":
        """A row over read-only arrays already in effective form
        (``remap``'s block rows): held as they are, not copied."""
        row = cls.__new__(cls)
        row._set(idx, latency_ms, alive)
        return row

    @property
    def nbytes(self) -> int:
        """What a holder that could not share this row would keep."""
        return self.latency_ms.nbytes + self.alive.nbytes


class RowBlock:
    """One overlay's gathered cost rows, patched in place between readers.

    ``costs[d, h]`` is the cost of link ``h -> d`` as the row last
    gathered for ``h`` reports it: column ``h`` is that row's effective
    latency, and ``held[h]`` the row object it was written from (None:
    the never-received column, ``inf`` with ``0`` at ``h``).
    :meth:`_RowTable.gather_into` brings the block to a table's rows;
    ``sums`` is the reader's ``(n, n)`` scratch and ``idx`` is
    ``arange(n)``. Nothing is allocated before the first gather, so an
    overlay whose routers never ask (the quorum system) pays nothing.
    """

    __slots__ = ("n", "costs", "held", "sums", "idx", "columns_written")

    def __init__(self) -> None:
        self.n = 0
        self.costs = self.sums = np.empty((0, 0))
        self.idx = np.arange(0)
        self.held: List[Optional[LinkStateRow]] = []
        #: Columns of ``costs`` written so far: the block's memory
        #: traffic in units of one row, for the perf guard.
        self.columns_written = 0

    def reset(self, n: int) -> None:
        """Become an ``(n, n)`` block that holds no row."""
        if n != self.n:
            self.n = n
            self.costs = np.empty((n, n))
            self.sums = np.empty((n, n))
            self.idx = np.arange(n)
        self.costs.fill(np.inf)
        self.costs[self.idx, self.idx] = 0.0
        self.held = [None] * n
        self.columns_written += n


class _RowTable:
    """``view position -> LinkStateRow`` references plus receive times.

    All vectors are indexed by membership-view position. A position whose
    row was never received has ``-inf`` receive time (unless touched) and
    reads as all-dead through the single-row readers; what the multi-row
    gathers make of it is the subclass's one decision.
    """

    __slots__ = ("n", "row_time", "_rows")

    def __init__(self, n: int):
        if n <= 0:
            raise RoutingError("table size must be positive")
        self.n = n
        self.row_time = np.full(n, -np.inf, dtype=np.float64)
        self._rows: Dict[int, LinkStateRow] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_row(self, idx: int, row: LinkStateRow, now: float) -> None:
        """Hold ``row`` (by reference) as view position ``idx``'s link state."""
        if not 0 <= idx < self.n:
            raise RoutingError(f"row index {idx} out of range (n={self.n})")
        if row.latency_ms.shape != (self.n,):
            raise RoutingError(
                f"row length {row.latency_ms.shape} does not match table n={self.n}"
            )
        if row.idx != idx:
            raise RoutingError(
                f"row built for view position {row.idx} installed at {idx}"
            )
        self._rows[idx] = row
        self.row_time[idx] = now

    def touch_row(self, idx: int, now: float) -> None:
        """Refresh row ``idx``'s receive time without changing contents."""
        self.row_time[idx] = now

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    def row_age(self, idx: int, now: float) -> float:
        """Seconds since row ``idx`` was updated (``inf`` if never)."""
        return now - self.row_time[idx]

    def fresh_rows(self, now: float, max_age: float) -> np.ndarray:
        """Indices of rows updated within ``max_age`` seconds."""
        return np.where(now - self.row_time <= max_age)[0]

    def sees_alive(self, dst: int, now: float, max_age: float) -> bool:
        """Does any fresh row report ``dst`` reachable?

        This is the §4.1 death check: a node inspects its rendezvous
        clients' tables for evidence that a destination is still alive.
        The destination's own row does not count (it being fresh already
        implies a working path, but the caller excludes it for the
        proximal-failure case), and a row that is fresh yet holds no
        content (touched, never received) cannot vouch.
        """
        rows = self._rows
        for idx in self.fresh_rows(now, max_age).tolist():
            row = rows.get(idx)
            if row is not None and idx != dst and row.alive[dst]:
                return True
        return False

    # ------------------------------------------------------------------
    # Single-row readers (a never-received row reads as all-dead)
    # ------------------------------------------------------------------
    def row(self, idx: int) -> Optional[LinkStateRow]:
        """The row object held for ``idx``; None if never received."""
        return self._rows.get(idx)

    def cost_row(self, idx: int) -> np.ndarray:
        """Row ``idx``'s effective latency, the additive path cost routing
        minimises: the shared, read-only array itself, not a copy."""
        row = self._rows.get(idx)
        if row is not None:
            return row.latency_ms
        return self._unheard_row(idx)

    def _unheard_row(self, idx: int) -> np.ndarray:
        """What a never-received row costs: ``inf``
        everywhere, ``0`` on its own diagonal (read-only).

        The full-mesh bootstrap reads ~n of these per route query, so
        they are not built: in the size's all-``inf`` vector of
        ``2n - 1`` with one ``0`` in the middle (:func:`_unheard_window`),
        row ``idx`` is the length-``n`` window that puts the ``0`` at
        ``idx``.
        """
        n = self.n
        if not 0 <= idx < n:
            raise RoutingError(f"row index {idx} out of range (n={n})")
        return _unheard_window(n)[n - 1 - idx : 2 * n - 1 - idx]

    def effective_cost(self, idx: int) -> np.ndarray:
        """:meth:`cost_row` as a private, writeable copy."""
        return self.cost_row(idx).copy()

    # ------------------------------------------------------------------
    # Multi-row gathers (routing kernels)
    # ------------------------------------------------------------------
    def _costs_with_absent(self, idxs: List[int]) -> List[np.ndarray]:
        """:meth:`_costs` when at least one of ``idxs`` was never received."""
        raise NotImplementedError

    def _costs(self, indices: np.ndarray) -> List[np.ndarray]:
        """The read-only cost row of each of ``indices``, in order."""
        idxs = np.asarray(indices, dtype=np.int64).tolist()
        rows = self._rows
        try:
            return [rows[i].latency_ms for i in idxs]
        except KeyError:
            return self._costs_with_absent(idxs)

    def cost_matrix(self, indices: np.ndarray) -> np.ndarray:
        """Cost rows for ``indices`` gathered into a fresh ``(k, n)`` matrix."""
        costs = self._costs(indices)
        if not costs:
            return np.empty((0, self.n))
        # concatenate + reshape: a third of np.stack's time at these sizes.
        return np.concatenate(costs).reshape(len(costs), self.n)

    def gather_into(self, block: RowBlock) -> None:
        """Bring ``block.costs`` to every row of this table, transposed:
        bitwise ``LinkStateTable.cost_matrix(arange(n)).T`` (a row never
        received reads as all-dead here, whichever the table).

        Only columns whose held row *is not* the object this table holds
        are rewritten. Rows are frozen, so the same object is the same
        bytes; a block of another size starts over from the all-unheard
        state.
        """
        if block.n != self.n:
            block.reset(self.n)
        held, costs, mine = block.held, block.costs, self._rows.get
        changed = [h for h in range(self.n) if mine(h) is not held[h]]
        for h in changed:
            row = held[h] = mine(h)
            costs[:, h] = self._unheard_row(h) if row is None else row.latency_ms
        block.columns_written += len(changed)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def held_rows(self) -> int:
        """Rows that hold content (touching a row does not make it held)."""
        return len(self._rows)

    def remap(
        self,
        survivors_old: np.ndarray,
        survivors_new: np.ndarray,
        n_new: int,
        now: float = 0.0,
        max_age: float = np.inf,
    ) -> "_RowTable":
        """A new table over ``n_new`` view slots with surviving members'
        rows/columns carried over (a view with another member set).

        A row that :meth:`fresh_rows` ``(now, max_age)`` would not
        return any more is dropped, not moved (its receive time still
        carries over): a holder that only ever gathers rows inside that
        window — the quorum router — can never read it again, and a
        former client's row would otherwise be moved at every later
        view delta for as long as the two stay members.

        The carried rows are new objects — their columns moved — cut
        from one ``(k, n_new)`` block per array; columns of members that
        joined read as dead until the owner publishes again. Every holder
        of a shared row applies the same delta to it, so the first one to
        get here moves the row and leaves the result on it for the rest:
        a moved row, too, exists once per process.
        """
        new = type(self)(n_new)
        survivors_old = np.asarray(survivors_old, dtype=np.int64)
        survivors_new = np.asarray(survivors_new, dtype=np.int64)
        # Receive times carry over for every survivor — including rows
        # that were only ever touched, which hold no content.
        new.row_time[survivors_new] = self.row_time[survivors_old]
        n = self.n
        moved_to = np.full(n, -1, dtype=np.int64)
        moved_to[survivors_old] = survivors_new
        moved_to = moved_to.tolist()
        # Old column per new column; a joined member's reads column n,
        # which holds the fill. Its bytes name the delta.
        source = np.full(n_new, n, dtype=np.int64)
        source[survivors_new] = survivors_old
        delta = source.tobytes()
        readable = (now - self.row_time <= max_age).tolist()
        todo = []
        for idx, row in self._rows.items():
            new_idx = moved_to[idx]
            if new_idx < 0 or not readable[idx]:
                continue  # the row's owner departed, or it aged out
            moved_row = row._moved() if row._moved_by == delta else None
            if moved_row is not None:
                new._rows[new_idx] = moved_row
            else:
                todo.append((new_idx, row))
        if not todo:
            return new
        k = len(todo)

        def moved(attr: str, fill: object, dtype: type) -> np.ndarray:
            old = np.empty((k, n + 1), dtype=dtype)
            old[:, :n] = np.concatenate([getattr(row, attr) for _, row in todo]).reshape(k, n)
            old[:, n] = fill
            block = old.take(source, axis=1)
            block.flags.writeable = False  # and so is every row cut from it
            return block

        blocks = (moved("latency_ms", np.inf, np.float64), moved("alive", False, bool))
        for (new_idx, row), latency_ms, alive in zip(todo, *blocks):
            moved_row = LinkStateRow._adopt(new_idx, latency_ms, alive)
            row._moved_by, row._moved = delta, weakref.ref(moved_row)
            new._rows[new_idx] = moved_row
        return new

    def nbytes(self) -> int:
        """Logical footprint: held rows counted as if this table owned
        them (a deployed node's cost), plus the receive-time vector."""
        return sum(row.nbytes for row in self._rows.values()) + self.row_time.nbytes


# Two names for bench/tracing.py, which patches ``update_row`` and ``remap``
# on each class separately: were one an alias or a subclass of the other,
# the second patch would wrap the first and every span would count twice.
# Each owns only what differs — how a gather treats a never-received row.


class LinkStateTable(_RowTable):
    """The full-mesh router's table: expects every row, so one not yet
    received reads as all-dead (``inf``) in the gathers too."""

    __slots__ = ()

    def _costs_with_absent(self, idxs: List[int]) -> List[np.ndarray]:
        rows = self._rows
        return [rows[i].latency_ms if i in rows else self._unheard_row(i) for i in idxs]


class SparseLinkStateTable(_RowTable):
    """The quorum router's table: holds ~2 sqrt(n) rendezvous clients'
    rows, and its kernels only ever gather rows they know are fresh — a
    gather over a never-received row is a bug, not an unknown link."""

    __slots__ = ()

    def _costs_with_absent(self, idxs: List[int]) -> List[np.ndarray]:
        missing = [i for i in idxs if i not in self._rows]
        raise RoutingError(f"rows never received: {missing}")
