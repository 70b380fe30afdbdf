"""The failover manager's per-size tables and carry-over, derived the
way each manager once derived its own.

``FailoverManager`` reads a position's default pairs and slot index from
tables built once per view size (``failover._SizeIndex``), and moves a
view change's evidence with one gather per array. Here the same things
come from one node's point of view: its default pairs from the grid in
fill-slot arithmetic (:func:`default_pairs`, which ``reference_grid``'s
scalar pair holds at every size), their inversion into a per-server slot
index (:func:`slots_by_server`), and the carry-over as the 2 x 2 masked
loop over (new slot, old slot) (:func:`carried_evidence`).
``test_failover_size_index.py`` holds the manager to them.
"""

from typing import Dict, Tuple

import numpy as np

from repro.core.grid import GridQuorum

#: A server's destinations (ascending) and their flat slot positions.
Slots = Tuple[np.ndarray, np.ndarray]


def default_pairs(grid: GridQuorum, i: int) -> np.ndarray:
    """The two canonical rendezvous of ``i`` with every member at once.

    For in-grid intersections these are the nodes at ``(row_i, col_j)``
    and ``(row_j, col_i)``; when an intersection falls on a blank
    position, the §3 augmentation provides the substitutes ``(col_i,
    col_j)`` / ``(col_j, col_i)``. Returns an ``(n, 2)`` int64 array in
    fill order: row ``k`` holds the pair for the member at fill slot
    ``k``. ``-1`` pads ``i``'s own row and a second pick equal to the
    first.
    """
    ri, ci = grid.position(i)
    cols, n = grid.cols, grid.n
    rj, cj = np.divmod(np.arange(n), cols)
    # (ri, cj) else (ci, cj); (rj, ci) else (cj, ci). Blanks occur only
    # in the bottom row, and the substitutes lie in full rows, so they
    # exist.
    first = ri * cols + cj
    first = np.where(first < n, first, ci * cols + cj)
    second = rj * cols + ci
    second = np.where(second < n, second, cj * cols + ci)
    members = np.array(grid.members, dtype=np.int64)
    pairs = np.empty((n, 2), dtype=np.int64)
    pairs[:, 0] = members[first]
    pairs[:, 1] = np.where(first == second, -1, members[second])
    pairs[grid.members.index(i)] = -1
    return pairs


def slots_by_server(grid: GridQuorum, me: int) -> Dict[int, Slots]:
    """Server -> the slots its message renews for the node at view
    position ``me``: :func:`default_pairs` inverted, i.e. the
    destinations (ascending) it is a default for and their flat
    positions ``dst * 2 + slot``; the node itself included where it is
    its own rendezvous."""
    pair = default_pairs(grid, me)
    flat = np.flatnonzero(pair >= 0)
    servers = pair.reshape(-1)[flat]
    return {
        int(server): (flat[servers == server] >> 1, flat[servers == server])
        for server in np.unique(servers)
    }


def carried_evidence(new, old, old_to_new) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``new.carry_over(old, old_to_new)`` must leave in ``new``'s
    ``(_cover, _since, _heard)``, from ``new`` fresh out of ``set_grid``:
    every surviving member's last message time, and the evidence of each
    (new slot, old slot) whose server and destination are the same two
    members, one masked write per pair of slots and evidence array."""
    cover, since, heard = new._cover.copy(), new._since.copy(), new._heard.copy()
    old_dst = np.flatnonzero(old_to_new >= 0)
    dst = old_to_new[old_dst]
    heard[dst] = old._heard[old_dst]
    was = old._pair[old_dst]
    was = np.where(was >= 0, old_to_new[was], -1)
    for slot in (0, 1):
        for old_slot in (0, 1):
            server = was[:, old_slot]
            same = (new._pair[dst, slot] == server) & (server >= 0)
            for mine, theirs in ((cover, old._cover), (since, old._since)):
                mine[dst[same], slot] = theirs[old_dst[same], old_slot]
    return cover, since, heard
