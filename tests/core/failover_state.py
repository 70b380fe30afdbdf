"""What a ``FailoverManager`` knows about one ``(server, destination)``.

No run reads a single slot: ``poll`` judges every default slot at once
(``FailoverManager._slot_verdicts``) and adopted servers one by one
(``_off_default_failed``). The tests state the §4.1 rules slot by slot,
so these two helpers read one slot's evidence and verdict out of the
manager's state, through the same code ``poll`` runs.
"""

from typing import Optional

import numpy as np


def _default_slot(mgr, server: int, dst: int) -> Optional[int]:
    """Column of ``server`` in ``dst``'s default pair, if it is in it."""
    first, second = mgr._pair[dst].tolist()
    if server == first:
        return 0
    return 1 if server == second else None


def last_cover(mgr, server: int, dst: int) -> Optional[float]:
    """When ``server`` last covered ``dst`` in a recommendation message,
    or None if it never has: for a default, since the two became a
    default pair; for any other server, since the node first adopted it
    for ``dst`` (nothing is kept otherwise)."""
    slot = _default_slot(mgr, server, dst)
    if slot is None:
        log = mgr._off_default.get(server)
        cover = log.covers.get(dst, -np.inf) if log is not None else -np.inf
    else:
        cover = mgr._cover[dst, slot]
    return None if cover == -np.inf else float(cover)


def server_failed(mgr, server: int, dst: int, now: float, up: np.ndarray) -> bool:
    """Is ``server`` (proximally or remotely) failed with respect to
    ``dst`` at ``now``, as ``poll`` judges it? ``server == mgr.me``
    is the same-row/column case where the node is itself a rendezvous
    for the pair: it fails exactly when the direct link to ``dst`` is
    down."""
    slot = _default_slot(mgr, server, dst)
    if slot is not None:
        return bool(mgr._slot_verdicts(now, up)[0][dst, slot])
    return not up[server] or mgr._off_default_failed(server, dst, now)
