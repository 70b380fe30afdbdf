"""The default rendezvous pair of one pair of members, as §3 states it.

``GridQuorum.default_pairs(i)`` answers every destination of ``i`` at
once in fill-slot arithmetic; :func:`default_rendezvous_pair` walks the
grid positions for one pair. ``test_grid.py`` holds the two equal at
every size, and ``spec_failover.py`` reads a slot's pair from here.
"""

from typing import List, Tuple

from repro.core.grid import GridQuorum
from repro.errors import QuorumError


def default_rendezvous_pair(grid: GridQuorum, i: int, j: int) -> Tuple[int, ...]:
    """The two canonical rendezvous for pair ``(i, j)``.

    For in-grid intersections these are the nodes at ``(row_i, col_j)``
    and ``(row_j, col_i)``; when an intersection falls on a blank
    position, the §3 augmentation provides the substitutes ``(col_x,
    col_j)`` / ``(row_j, col_x)`` described in the paper. Deduplicated;
    may have length 1 for degenerate (same row *and* column) cases.
    """
    if i == j:
        raise QuorumError("a node has no rendezvous pair with itself")
    ri, ci = grid.position(i)
    rj, cj = grid.position(j)
    picks: List[int] = []
    # Intersection of i's row with j's column. Blanks only occur in
    # the bottom row, so a blank here means i is a bottom-row node and
    # cj is a blank column; the §3 augmentation's substitute is the
    # node at (ci, cj), which is both an extra server of i and in j's
    # column.
    first = grid.at(ri, cj)
    if first is None:
        first = grid.at(ci, cj)
    # Intersection of j's row with i's column, symmetric reasoning.
    second = grid.at(rj, ci)
    if second is None:
        second = grid.at(cj, ci)
    for node in (first, second):
        if node is not None and node not in picks:
            picks.append(node)
    if not picks:  # pragma: no cover - coverage theorem prevents this
        raise QuorumError(f"no rendezvous found for pair ({i}, {j})")
    return tuple(picks)
