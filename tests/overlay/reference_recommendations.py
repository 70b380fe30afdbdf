"""Round-2 receive side, one entry at a time, keeping everything.

A test-only reference for ``QuorumRouter.on_recommendation``: plain
lists, one loop, and all six per-destination values whatever the
configuration — the installed hop with its arrival time and sender, and
the displaced rendezvous' hop, time and sender. The router keeps only
the ones its configuration reads; ``assert_router_matches`` compares
those it holds.
"""

import numpy as np

NEVER = -np.inf


class AllArraysOracle:
    def __init__(self, n, me):
        self.n, self.me = n, me
        self.hop = [-1] * n
        self.time = [NEVER] * n
        self.server = [-1] * n
        self.hop2 = [-1] * n
        self.time2 = [NEVER] * n
        self.server2 = [-1] * n

    def apply(self, server, entries, now):
        """One message from ``server``; returns the destinations it
        covered."""
        covered = []
        for dst, hop in entries:
            if not (0 <= dst < self.n and 0 <= hop < self.n) or dst == self.me:
                continue  # dropped; the rest of the message applies
            covered.append(dst)
            if self.server[dst] >= 0 and self.server[dst] != server:
                self.hop2[dst] = self.hop[dst]
                self.time2[dst] = self.time[dst]
                self.server2[dst] = self.server[dst]
            self.hop[dst] = hop
            self.time[dst] = now
            self.server[dst] = server
        return covered

    def change_view(self, moved_to, n, me):
        """Members keep their identity and change position
        (``moved_to[old]``; the departed have none). A route through a
        departed one-hop is gone — hop and arrival time, though not the
        memory of who sent it; a departed sender is forgotten, the route
        it recommended is not."""
        old = self.arrays()
        self.__init__(n, me)
        new = self.arrays()
        for was, at in moved_to.items():
            for which in ("", "2"):  # the installed route, the displaced one
                new["route_server" + which][at] = moved_to.get(
                    old["route_server" + which][was], -1
                )
                via = moved_to.get(old["route_hop" + which][was], -1)
                if via >= 0:
                    new["route_hop" + which][at] = via
                    new["route_time" + which][at] = old["route_time" + which][was]

    def arrays(self):
        return {
            "route_hop": self.hop,
            "route_time": self.time,
            "route_server": self.server,
            "route_hop2": self.hop2,
            "route_time2": self.time2,
            "route_server2": self.server2,
        }

    def assert_router_matches(self, router):
        """Every route array the router holds equals the oracle's."""
        for name, values in self.arrays().items():
            held = getattr(router, name)
            if held is not None:
                assert held.tolist() == values, name

    def install_all_arrays(self, router):
        """Give ``router`` all six arrays, whatever its configuration."""
        for name, values in self.arrays().items():
            setattr(router, name, np.array(values))  # positions int64, times float64
