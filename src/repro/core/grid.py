"""Grid quorum construction (§3 of the paper).

Nodes are placed row-major into an ``R x C`` grid; a node's *rendezvous
servers* are all nodes in its row and column. Any two rows/columns
intersect, so every pair of nodes shares at least one (generally two)
rendezvous servers — the property the two-round routing protocol needs.

Non-perfect squares (§3, "Non perfect-square grids"): with ``a = sqrt(n) -
floor(sqrt(n))``, the grid is ``ceil(sqrt(n)) x floor(sqrt(n))`` when
``a < 0.5`` and ``ceil(sqrt(n)) x ceil(sqrt(n))`` otherwise. The last row
may be partial (``k`` of ``C`` positions filled), leaving "blank spaces".
Each bottom-row node in column ``i`` is then also assigned the nodes at
row ``i`` in the blank columns as additional rendezvous servers — and
symmetrically those upper-right nodes gain the bottom-row node — which
restores the invariant that every node has a rendezvous server in every
row and every column, at the cost of at most ``2 sqrt(n)`` servers/clients
per node.

The construction is deterministic given the member list, so all overlay
nodes that share a membership view derive identical grids (§5,
"Membership Service"). The routers build theirs over view *positions*
``0..n-1``, so that grid is a function of ``n`` alone, and every router
of a view size shares one: :meth:`GridQuorum.of_size` builds it once
per size and process, and refuses to let a holder resize it. What the
§4.1 failover manager reads of it is a function of ``n`` too, so it is
built once per size as well, from grid coordinates rather than from
this class: every position's two default rendezvous towards every
destination (an ``(n, n, 2)`` int32 table, blank-space substitutes
included) and, per position, which slots each of its servers' messages
renew (``repro.core.failover._SizeIndex``). Those are held only while a
manager of that size lives.

Because the fill is row-major over an explicit member list, a single
membership change can still be applied *incrementally* to a grid of
one's own (:meth:`GridQuorum.insert_member` /
:meth:`GridQuorum.remove_member`): only the positions at or after the
changed slot move, and row/column membership is derived from the fill
by slicing rather than stored. :meth:`GridQuorum.assert_equals_fresh`
proves a grid identical to one rebuilt from scratch.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import QuorumError

__all__ = ["grid_dimensions", "GridQuorum"]

_NO_EXTRA: FrozenSet[int] = frozenset()

#: :meth:`GridQuorum.of_size`'s grids, by size.
_OF_SIZE: Dict[int, "GridQuorum"] = {}


def grid_dimensions(n: int) -> Tuple[int, int]:
    """Return the ``(rows, cols)`` of the paper's grid for ``n`` nodes.

    Implements footnote 5: let ``a = sqrt(n) - floor(sqrt(n))``; if
    ``a < 0.5`` the grid is ``ceil(sqrt(n)) x floor(sqrt(n))``, else
    ``ceil(sqrt(n)) x ceil(sqrt(n))``.
    """
    if n < 1:
        raise QuorumError(f"grid needs at least one node, got n={n}")
    root = math.isqrt(n)
    if root * root == n:
        return root, root
    a = math.sqrt(n) - root
    rows = root + 1
    cols = root if a < 0.5 else root + 1
    if not (rows - 1) * cols < n <= rows * cols:
        raise QuorumError(f"internal error sizing grid for n={n}")  # pragma: no cover
    return rows, cols


class GridQuorum:
    """Rendezvous assignment for a member list via the grid quorum.

    Parameters
    ----------
    members:
        The overlay membership in the canonical order all nodes agree on
        (the membership service distributes a sorted list; the grid is
        filled row-major from it). IDs must be unique.

    Notes
    -----
    ``servers(x)`` and ``clients(x)`` are equal by construction (the grid
    quorum is symmetric, as the paper notes); both include ``x`` itself,
    which encodes that a node trivially holds its own link state. Use
    ``servers(x, include_self=False)`` for the message-recipient list.
    """

    def __init__(self, members: Sequence[int]):
        members = list(members)
        if len(set(members)) != len(members):
            raise QuorumError("duplicate member IDs in grid construction")
        if not members:
            raise QuorumError("grid needs at least one member")
        self._members: List[int] = members
        # Incremental inserts rely on bisection, which is only sound on
        # the canonical (sorted) fill order the membership service uses.
        self._canonical = all(
            members[i] < members[i + 1] for i in range(len(members) - 1)
        )
        #: True for the one grid per size :meth:`of_size` hands out.
        self.shared = False
        self._refit(from_idx=None)

    @classmethod
    def of_size(cls, n: int) -> "GridQuorum":
        """The grid over view positions ``0..n-1``, built once per size.

        Every holder gets the same object, so it cannot be resized —
        a view of another size takes that size's grid instead. That
        makes the memo safe to keep for the process: each entry is a
        pure function of ``n``, and there is one per size ever asked for.
        """
        grid = _OF_SIZE.get(n)
        if grid is None:
            grid = cls(range(n))
            grid.shared = True
            _OF_SIZE[n] = grid
        return grid

    # ------------------------------------------------------------------
    # Geometry derivation
    # ------------------------------------------------------------------
    def _refit(self, from_idx: Optional[int]) -> None:
        """Recompute geometry after ``self._members`` changed.

        ``from_idx`` is the first fill slot whose occupant changed; only
        indices from there on are recomputed. ``None`` means everything
        (construction, or a column-count change that moves every node).
        """
        self.n = len(self._members)
        old_cols = getattr(self, "cols", None)
        self.rows, self.cols = grid_dimensions(self.n)
        # k = number of filled positions in the (possibly partial) last row.
        self.last_row_fill = self.n - (self.rows - 1) * self.cols
        if from_idx is None or self.cols != old_cols:
            self._index: Dict[int, int] = {
                m: i for i, m in enumerate(self._members)
            }
        else:
            for i in range(from_idx, self.n):
                self._index[self._members[i]] = i
        self._compute_extra()
        self._servers_cache: Dict[int, Tuple[int, ...]] = {}

    def _compute_extra(self) -> None:
        # §3 blank-space augmentation: bottom-row node in column c0 gains
        # the nodes at (c0, j) for each blank column j; symmetric back-link.
        # Stored sparsely — only the O(sqrt(n)) involved members appear.
        self._extra: Dict[int, Set[int]] = {}
        if self.last_row_fill < self.cols and self.rows > 1:
            bottom = self.rows - 1
            for c0 in range(self.last_row_fill):
                bottom_node = self.at(bottom, c0)
                assert bottom_node is not None
                for blank_col in range(self.last_row_fill, self.cols):
                    partner = self.at(c0, blank_col)
                    if partner is None:  # pragma: no cover - cannot happen
                        raise QuorumError("blank-column partner missing")
                    self._extra.setdefault(bottom_node, set()).add(partner)
                    self._extra.setdefault(partner, set()).add(bottom_node)

    # ------------------------------------------------------------------
    # Incremental membership changes
    # ------------------------------------------------------------------
    def insert_member(self, member: int) -> int:
        """Add ``member`` at its canonical (sorted) fill slot; return it.

        Only slots at or after the insertion point are re-derived; when
        the insertion lands at the tail, nothing shifts at all. Requires
        the current fill to be in sorted canonical order, and a grid of
        one's own (not :meth:`of_size`'s).
        """
        self._require_unshared()
        if member in self._index:
            raise QuorumError(f"{member} is already in this grid")
        if not self._canonical:
            raise QuorumError(
                "incremental insert requires the canonical sorted fill order"
            )
        idx = bisect.bisect_left(self._members, member)
        self._members.insert(idx, member)
        self._refit(from_idx=idx)
        return idx

    def remove_member(self, member: int) -> int:
        """Remove ``member``; return the fill slot it occupied.

        Slots before the removed one are untouched; a tail removal
        shifts nothing.
        """
        self._require_unshared()
        if self.n == 1:
            raise QuorumError("grid needs at least one member")
        idx = self._index.pop(member, None)
        if idx is None:
            raise QuorumError(f"{member} is not in this grid")
        del self._members[idx]
        self._refit(from_idx=idx)
        return idx

    def _require_unshared(self) -> None:
        if self.shared:
            raise QuorumError(
                f"the shared grid over positions 0..{self.n - 1} cannot be "
                "resized; take GridQuorum.of_size() of the new size"
            )

    def assert_equals_fresh(self) -> None:
        """Prove this (possibly delta-applied) grid identical to a
        from-scratch construction over the same member list.

        Raises :class:`QuorumError` on any divergence — geometry, fill
        positions, blank-space extras, or any member's rendezvous set.
        """
        fresh = GridQuorum(list(self._members))
        if (self.n, self.rows, self.cols, self.last_row_fill) != (
            fresh.n,
            fresh.rows,
            fresh.cols,
            fresh.last_row_fill,
        ):
            raise QuorumError(
                f"incremental grid geometry diverged: {self!r} vs {fresh!r}"
            )
        if self._index != fresh._index:
            raise QuorumError("incremental grid fill positions diverged")
        if self._extra != fresh._extra:
            raise QuorumError("incremental grid blank-space extras diverged")
        for m in self._members:
            if self.servers(m) != fresh.servers(m):
                raise QuorumError(
                    f"incremental grid rendezvous set diverged for {m}"
                )

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def members(self) -> List[int]:
        """Members in grid (row-major) order."""
        return list(self._members)

    def __contains__(self, member: int) -> bool:
        return member in self._index

    def position(self, member: int) -> Tuple[int, int]:
        """Grid coordinates ``(row, col)`` of ``member``."""
        try:
            return divmod(self._index[member], self.cols)
        except KeyError:
            raise QuorumError(f"{member} is not in this grid") from None

    def at(self, row: int, col: int) -> Optional[int]:
        """Member at ``(row, col)``, or None for a blank position."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise QuorumError(f"position ({row}, {col}) outside grid")
        idx = row * self.cols + col
        return self._members[idx] if idx < self.n else None

    def row_of(self, member: int) -> List[int]:
        """All members in ``member``'s row (including itself)."""
        row = self.position(member)[0]
        return self._members[row * self.cols : min((row + 1) * self.cols, self.n)]

    def col_of(self, member: int) -> List[int]:
        """All members in ``member``'s column (including itself)."""
        col = self.position(member)[1]
        return self._members[col :: self.cols]

    # ------------------------------------------------------------------
    # Rendezvous sets
    # ------------------------------------------------------------------
    def servers(self, member: int, include_self: bool = True) -> Tuple[int, ...]:
        """The rendezvous servers of ``member`` (row + column + extras).

        Deterministically ordered (grid order) so all nodes agree.
        """
        cached = self._servers_cache.get(member)
        if cached is None:
            merged = set(self.row_of(member))
            merged.update(self.col_of(member))
            merged.update(self._extra.get(member, _NO_EXTRA))
            cached = tuple(sorted(merged, key=self._index.__getitem__))
            self._servers_cache[member] = cached
        if include_self:
            return cached
        return tuple(m for m in cached if m != member)

    def clients(self, member: int, include_self: bool = True) -> Tuple[int, ...]:
        """Rendezvous clients; equal to :meth:`servers` (symmetric quorum)."""
        return self.servers(member, include_self=include_self)

    def common_rendezvous(self, i: int, j: int) -> Tuple[int, ...]:
        """All shared rendezvous servers of ``i`` and ``j`` (may include
        ``i``/``j`` themselves for same-row/column pairs)."""
        si = set(self.servers(i))
        return tuple(m for m in self.servers(j) if m in si)

    def failover_candidates(self, dst: int) -> Tuple[int, ...]:
        """§4.1 failover set for ``dst``: nodes in ``dst``'s row+column.

        These are exactly ``dst``'s rendezvous servers (excluding ``dst``);
        each already receives ``dst``'s link state, so any of them can
        immediately recommend routes to ``dst``.
        """
        return self.servers(dst, include_self=False)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check the §3 invariants; raise :class:`QuorumError` if broken.

        * every pair of members shares at least one rendezvous server;
        * no node has more than ``2 * ceil(sqrt(n))`` servers;
        * server/client symmetry.
        """
        for m in self._members:
            srv = self.servers(m, include_self=False)
            if len(srv) > 2 * (math.isqrt(self.n) + 1):
                raise QuorumError(
                    f"node {m} has {len(srv)} rendezvous servers, "
                    f"exceeding the 2*sqrt(n) bound (n={self.n})"
                )
            for s in srv:
                if m not in self.servers(s):
                    raise QuorumError(f"asymmetric rendezvous: {m} -> {s}")
        for a_idx in range(self.n):
            for b_idx in range(a_idx + 1, self.n):
                a, b = self._members[a_idx], self._members[b_idx]
                if not self.common_rendezvous(a, b):
                    raise QuorumError(f"pair ({a}, {b}) shares no rendezvous")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GridQuorum n={self.n} grid={self.rows}x{self.cols} "
            f"last_row_fill={self.last_row_fill}>"
        )
