"""Two-round protocol member ids: any order of 0..n-1, nothing else."""

import numpy as np
import pytest

from repro.core.onehop import best_one_hop_all_pairs
from repro.core.protocol import run_two_round
from repro.core.quorum import GridQuorumSystem
from repro.errors import RoutingError
from tests.conftest import make_symmetric_costs


class TestIndexMapping:
    def test_non_contiguous_ids_without_mapping_rejected(self, rng):
        ids = [5, 9, 12, 30]
        w = make_symmetric_costs(rng, 4)
        with pytest.raises(RoutingError):
            run_two_round(w, GridQuorumSystem(ids))

    def test_permuted_contiguous_ids(self, rng):
        # Members 0..8 presented in scrambled order: the grid layout
        # differs from sorted order but optimality must not.
        ids = [4, 0, 7, 2, 8, 1, 6, 3, 5]
        w = make_symmetric_costs(rng, 9)
        result = run_two_round(w, GridQuorumSystem(ids))
        oracle, _ = best_one_hop_all_pairs(w)
        assert np.allclose(result.costs, oracle)

    def test_matrix_size_mismatch_rejected(self, rng):
        w = make_symmetric_costs(rng, 5)
        with pytest.raises(RoutingError):
            run_two_round(w, GridQuorumSystem(list(range(6))))


class TestChurnSequence:
    """Routes stay correct while membership grows and shrinks."""

    def test_grow_and_shrink(self):
        from repro.core.onehop import best_one_hop_all_pairs
        from repro.net.trace import uniform_random_metric
        from repro.overlay.config import RouterKind
        from repro.overlay.harness import build_overlay

        n_underlay = 12
        rng = np.random.default_rng(29)
        trace = uniform_random_metric(n_underlay, rng)
        ov = build_overlay(
            trace=trace,
            router=RouterKind.QUORUM,
            rng=rng,
            active_members=range(9),
        )
        ov.run(120.0)

        # Grow: 9 -> 11.
        ov.join_node(9)
        ov.join_node(10)
        ov.run(120.0)
        assert ov.nodes[0].router.view.n == 11

        # Shrink: drop one of the originals.
        ov.leave_node(4)
        ov.run(120.0)
        view = ov.nodes[0].router.view
        assert view.n == 10
        assert 4 not in view

        # Remaining members route near-optimally over the member set.
        members = list(view.members)
        w = np.asarray(trace.rtt_ms)
        sub = w[np.ix_(members, members)]
        optimal, _ = best_one_hop_all_pairs(sub)
        good = total = 0
        for a_pos, a in enumerate(members):
            for b_pos, b in enumerate(members):
                if a == b:
                    continue
                total += 1
                route = ov.nodes[a].route_to(b)
                if not route.usable:
                    continue
                hop_id = members[route.hop]
                cost = (
                    w[a, b]
                    if hop_id in (a, b)
                    else w[a, hop_id] + w[hop_id, b]
                )
                if cost <= optimal[a_pos, b_pos] * 1.08 + 1.0:
                    good += 1
        assert good / total > 0.9
