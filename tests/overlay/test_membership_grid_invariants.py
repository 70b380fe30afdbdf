"""Property-style membership/grid invariants under random churn.

The §5 correctness argument rests on one property: every node holding
view version v holds the same member tuple and therefore derives the
identical grid. These tests hammer the membership service with random
join/leave sequences (many seeds, no fixed scenario) and check the
invariants on every view any subscriber ever observed.
"""

import numpy as np
import pytest

from repro.core.grid import GridQuorum
from repro.errors import MembershipError
from repro.net.simulator import Simulator
from repro.overlay.membership import MembershipService


def random_churn_views(seed, n_pool=24, n_events=60, return_service=False):
    """Drive a random join/leave sequence; collect every delivered view.

    Returns ``views_by_member``: member id -> list of views it received
    (plus the service itself when ``return_service``).
    """
    rng = np.random.default_rng(seed)
    sim = Simulator()
    svc = MembershipService(sim)
    views_by_member = {}

    def subscriber(member):
        views_by_member.setdefault(member, [])
        return lambda view: views_by_member[member].append(view)

    members = set()
    pool = list(range(n_pool))
    # Random non-empty bootstrap population.
    k = int(rng.integers(1, n_pool))
    for m in rng.choice(pool, size=k, replace=False):
        members.add(int(m))
    svc.bootstrap({m: subscriber(m) for m in sorted(members)})

    for _ in range(n_events):
        sim.run_until(sim.now + float(rng.uniform(0.1, 5.0)))
        outside = sorted(set(pool) - members)
        can_leave = len(members) > 1
        if outside and (not can_leave or rng.random() < 0.5):
            m = outside[int(rng.integers(len(outside)))]
            svc.join(m, subscriber(m))
            members.add(m)
        elif can_leave:
            inside = sorted(members)
            m = inside[int(rng.integers(len(inside)))]
            svc.leave(m)
            members.discard(m)
    sim.run_until(sim.now + 1.0)
    if return_service:
        return views_by_member, svc
    return views_by_member


@pytest.mark.parametrize("seed", range(8))
class TestViewConsistency:
    def test_same_version_means_same_members_and_grid(self, seed):
        views_by_member = random_churn_views(seed)
        by_version = {}
        for member, views in views_by_member.items():
            for view in views:
                by_version.setdefault(view.version, []).append((member, view))
        assert by_version, "no views were delivered"
        for version, received in by_version.items():
            tuples = {view.members for _, view in received}
            assert len(tuples) == 1, f"version {version} had divergent members"
            # Identical member tuples => identical grids: same dimensions
            # and same rendezvous (server) set for every position.
            members = next(iter(tuples))
            grids = [GridQuorum(list(range(len(members)))) for _ in range(2)]
            a, b = grids
            assert (a.rows, a.cols) == (b.rows, b.cols)
            for idx in range(len(members)):
                assert a.servers(idx) == b.servers(idx)

    def test_views_are_sorted_unique_and_versions_increase(self, seed):
        views_by_member = random_churn_views(seed)
        for member, views in views_by_member.items():
            versions = [view.version for view in views]
            assert versions == sorted(versions)
            for view in views:
                assert view.members == tuple(sorted(set(view.members)))

    def test_index_of_and_contains_match_member_tuple(self, seed):
        views_by_member = random_churn_views(seed)
        all_views = {
            view.version: view
            for views in views_by_member.values()
            for view in views
        }
        for view in all_views.values():
            for pos, member in enumerate(view.members):
                assert view.index_of(member) == pos
                assert view.position(member) == pos
                assert member in view
            # Non-members: __contains__ is False, index_of raises —
            # probe ids around every member boundary plus outsiders.
            candidates = set(range(-1, 30)) - set(view.members)
            for outsider in candidates:
                assert outsider not in view
                assert view.position(outsider) == -1
                with pytest.raises(MembershipError):
                    view.index_of(outsider)

    def test_subscribers_converge_to_final_view(self, seed):
        views_by_member, svc = random_churn_views(seed, return_service=True)
        final = svc.view
        assert final.n >= 1
        # Every current member's most recently delivered view IS the
        # service's final view (delivery is reliable and ordered).
        for member in final.members:
            last = views_by_member[member][-1]
            assert last.version == final.version
            assert last.members == final.members
