"""§4.1 rapid rendezvous failover, stated as plainly as it can be run.

A test-only specification written from the paper, not from
``repro/core/failover.py``: plain dicts keyed by ``(server, dst)``, one
function per rule, no arrays, no write-combining. ``test_failover_spec``
holds the array-backed manager to it, decision by decision and random
draw by random draw. When the two disagree, decide which one the paper
agrees with before editing either.
"""

import numpy as np

from reference_grid import default_rendezvous_pair
from repro.core.failover import FailoverPoll


def listed_mask(n, dsts):
    """The ``(n,)`` bool mask a receiving router hands
    ``FailoverManager.note_recommendations`` for a message listing
    ``dsts`` (view positions)."""
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(list(dsts), dtype=np.int64)] = True
    return mask


class FailoverSpec:
    def __init__(self, me, rng, timeout_s):
        self.me, self.rng, self.timeout_s = me, rng, timeout_s

    def set_grid(self, grid, now):
        """A first view: nobody has covered anything yet."""
        self.grid = grid
        self.pairs = {
            dst: default_rendezvous_pair(grid, self.me, dst)
            for dst in grid.members
            if dst != self.me
        }
        self.covered_at = {}  # (server, dst): its last message listing dst
        self.omitted_at = {}  # (server, dst): its last message leaving dst out
        self.adopted_at = {}  # (server, dst): when we last made it dst's failover
        self.failover = {}  # dst: the state of an ongoing double failure
        # (server, dst): since when we expect this default to cover dst
        self.expected_since = {
            (server, dst): now for dst, pair in self.pairs.items() for server in pair
        }

    def change_view(self, me, grid, moved_to, now):
        """A later view version: members keep their identity and change
        position (``moved_to[old]``; the departed have none). A server
        that was a destination's default rendezvous and still is one
        "was recommending it" or was not, just as before; every other
        expectation starts with the new view."""
        before = self.covered_at, self.omitted_at, self.expected_since, self.pairs
        self.me = me
        self.set_grid(grid, now)
        for old_dst, old_pair in before[3].items():
            for old_server in old_pair:
                key = moved_to.get(old_server), moved_to.get(old_dst)
                if key in self.expected_since:  # still a default pair
                    for kept, known in zip(
                        (self.covered_at, self.omitted_at, self.expected_since), before
                    ):
                        if (old_server, old_dst) in known:
                            kept[key] = known[old_server, old_dst]

    def note_recommendations(self, server, dsts, now):
        """One message from ``server`` listing ``dsts``. It leaves a
        destination *out* only where we look to it for that destination:
        as a default, or as the failover we adopted. Nobody lists itself."""
        for dst in dsts:
            self.covered_at[server, dst] = now
        looked_to = [d for d, pair in self.pairs.items() if server in pair]
        looked_to += [d for d, st in self.failover.items() if st["active"] == server]
        for dst in looked_to:
            if dst not in dsts and dst != server:
                self.omitted_at[server, dst] = now

    # -- the rules -----------------------------------------------------
    def proximally_failed(self, server, dst, up):
        """Our own monitor says the link is down. Where we are ourselves
        the rendezvous (same row or column), the link is the one to dst."""
        return not up[dst if server == self.me else server]

    def stopped_recommending(self, server, dst, is_failover):
        """"k stopped recommending any route to j": its latest message
        left j out, and an earlier one listed it. A failover server's
        first answer already counts — j was its client before we asked."""
        omitted = self.omitted_at.get((server, dst))
        covered = self.covered_at.get((server, dst))
        if omitted is None:
            return False
        return is_failover if covered is None else omitted > covered

    def silent_too_long(self, server, dst, since, now):
        """No cover for the timeout, counted from the last cover or from
        when we began to expect one, whichever is later."""
        heard = max(self.covered_at.get((server, dst), since), since)
        return now - heard > self.timeout_s

    def default_failed(self, server, dst, now, up):
        if server == self.me:
            return not up[dst]
        return (
            self.proximally_failed(server, dst, up)
            or self.stopped_recommending(server, dst, is_failover=False)
            or self.silent_too_long(server, dst, self.expected_since[server, dst], now)
        )

    def failover_failed(self, server, dst, now):
        """Remote verdict on a server we adopted for dst (now or earlier)."""
        since = self.adopted_at.get((server, dst))
        return since is not None and (
            self.stopped_recommending(server, dst, is_failover=True)
            or self.silent_too_long(server, dst, since, now)
        )

    # -- one evaluation pass ---------------------------------------------
    def poll(self, now, up, sees_alive):
        out = FailoverPoll()
        for dst, pair in sorted(self.pairs.items()):
            if all(self.proximally_failed(s, dst, up) for s in pair):
                out.proximal_double_failures += 1
            if not all(self.default_failed(s, dst, now, up) for s in pair):
                self.failover.pop(dst, None)  # revert to the defaults
                continue
            out.double_failures += 1
            st = self.failover.setdefault(
                dst,
                dict(active=None, excluded=set(), tried=0, paused=False),
            )
            if st["active"] is not None:
                if up[st["active"]] and not self.failover_failed(st["active"], dst, now):
                    out.extra_servers.add(st["active"])
                    continue
                st["excluded"].add(st["active"])  # a failed failover
                st["active"] = None
            # After the first attempt, only chase a destination somebody
            # can still see; otherwise pause until it shows life again.
            if (st["paused"] or st["tried"] >= 1) and not sees_alive(dst):
                st["paused"] = True
                out.suppressed += 1
                continue
            if st["paused"]:
                st.update(paused=False, excluded=set(), tried=0)
            candidates = [
                c
                for c in self.grid.failover_candidates(dst)
                if c != self.me
                and c not in pair
                and c not in st["excluded"]
                and up[c]
                and not self.failover_failed(c, dst, now)
            ]
            if not candidates:
                st["excluded"].clear()  # row+column exhausted: start over later
                continue
            choice = candidates[int(self.rng.integers(len(candidates)))]  # uniformly
            st.update(active=choice, tried=st["tried"] + 1)
            self.adopted_at[choice, dst] = now
            out.adopted.append((dst, choice))
            out.extra_servers.add(choice)
        return out
