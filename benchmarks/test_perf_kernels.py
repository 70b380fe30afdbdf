"""Performance microbenchmarks for the library's hot kernels.

Unlike the figure benchmarks (single-shot reproductions), these use
pytest-benchmark's statistical timing to watch for performance
regressions in the pieces that dominate simulation time: the event
loop, the one-hop min-plus kernel, grid construction, a full two-round
protocol execution, the quorum link-state table, the bulk route
kernel, the per-node link-state memory envelope of the benchmark's
``steady_n256`` overlay, the
full-mesh availability sample over the overlay's shared row block,
one node's round-2 receive work for a routing interval,
and one gossip digest received in the steady state and one op behind.

CI runs this file with ``--benchmark-disable`` (check mode): every
benchmark body executes once as a plain test, so the regression
*guards* (assertions on memory bounds and routability) gate merges
while the statistical timings remain a local/bench-host tool.
"""

import collections
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from reference_recommendations import AllSevenOracle  # tests/overlay, via conftest

from bench.workloads import WORKLOADS  # the repo root, via conftest
from repro.core.grid import GridQuorum
from repro.core.onehop import best_one_hop_all_pairs
from repro.core.protocol import run_two_round
from repro.core.quorum import GridQuorumSystem
from repro.net.simulator import Simulator
from repro.net.packet import GossipDigest, RecommendationMessage
from repro.net.trace import planetlab_like, uniform_random_metric
from repro.overlay.config import Gossip, RouterKind
from repro.overlay.gossip import GossipMembershipNode
from repro.overlay.harness import build_overlay
from repro.overlay.linkstate import LinkStateRow, SparseLinkStateTable
from repro.overlay.router_quorum import QuorumRouter


def test_perf_simulator_event_loop(benchmark):
    """Schedule+run 20k events (the deployment runs ~1M)."""

    def run():
        sim = Simulator()
        sink = []
        for k in range(20_000):
            sim.schedule(k * 0.001, sink.append, k)
        sim.run()
        return len(sink)

    assert benchmark(run) == 20_000


def test_perf_onehop_all_pairs_200(benchmark):
    """The O(n^3) one-hop oracle at n=200 (Figure 1 scale is 359)."""
    rng = np.random.default_rng(0)
    w = rng.uniform(10, 400, (200, 200))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)

    costs, hops = benchmark(best_one_hop_all_pairs, w)
    assert costs.shape == (200, 200)


def test_perf_grid_construction_1024(benchmark):
    """Grid quorum build + full server-set materialization at n=1024."""

    def build():
        grid = GridQuorum(list(range(1024)))
        for m in range(1024):
            grid.servers(m)
        return grid

    grid = benchmark(build)
    assert grid.rows == 32


def test_perf_two_round_protocol_144(benchmark):
    """One synchronous protocol execution at n=144."""
    rng = np.random.default_rng(1)
    w = rng.uniform(10, 400, (144, 144))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    quorum = GridQuorumSystem(list(range(144)))

    result = benchmark(run_two_round, w, quorum)
    assert result.coverage_fraction() == 1.0


# ----------------------------------------------------------------------
# PR 4: sparse storage, bulk route kernel, and scale regression guards
# ----------------------------------------------------------------------
def _published_row(rng, n, idx):
    """A frozen row as a client publishes it: all links up, no loss."""
    return LinkStateRow(idx, rng.uniform(5.0, 400.0, n), np.ones(n, dtype=bool), np.zeros(n))


def _filled_sparse_table(n, rows, seed=0):
    table = SparseLinkStateTable(n)
    rng = np.random.default_rng(seed)
    held = rng.choice(n, size=rows, replace=False)
    for idx in held:
        table.update_row(int(idx), _published_row(rng, n, int(idx)), 0.0)
    return table, np.sort(held)


def test_perf_sparse_update_and_minplus_2048(benchmark):
    """One routing tick's table work at n=2048: a published row installed
    by reference, the ~2 sqrt(n) held cost rows gathered into one matrix,
    and the full min-plus over it."""
    n = 2048
    table, held = _filled_sparse_table(n, rows=2 * math.isqrt(n))
    rng = np.random.default_rng(1)
    # A client alternates between two published rows, so every install
    # replaces the held object (row_version moves) as a real tick's does.
    fresh = [_published_row(rng, n, int(held[0])) for _ in range(2)]
    ticks = itertools.count(1)

    def tick():
        t = next(ticks)
        table.update_row(int(held[0]), fresh[t % 2], float(t))
        rows = table.cost_matrix(held)
        best = 0
        for i in range(rows.shape[0] - 1):
            totals = rows[i][None, :] + rows[i + 1 :]
            best += int(np.argmin(totals, axis=1)[0])
        return best

    benchmark(tick)
    assert table.held_rows == held.size
    assert table.row_version[held[0]] > 1


@pytest.fixture(scope="module")
def routed_overlay_100():
    """A converged n=100 quorum overlay shared by the route benchmarks."""
    rng = np.random.default_rng(12)
    ov = build_overlay(
        trace=uniform_random_metric(100, rng),
        router=RouterKind.QUORUM,
        rng=rng,
        with_freshness=False,
    )
    ov.run(120.0)
    return ov


def test_perf_route_vector_100(benchmark, routed_overlay_100):
    """The bulk route kernel (all destinations, one node)."""
    router = routed_overlay_100.nodes[0].router
    hops, usable = benchmark(router.route_vector)
    assert usable.sum() >= 95  # converged overlay routes nearly all pairs


def test_perf_route_ok_matrix_100(benchmark, routed_overlay_100):
    """One ground-truth availability sample (the churn workloads take
    one of these every 5 simulated seconds)."""
    ok, mask = benchmark(routed_overlay_100.route_ok_matrix)
    assert mask.all()
    frac = ok.sum() / (mask.sum() * (mask.sum() - 1))
    assert frac > 0.95


def test_perf_fullmesh_route_ok_matrix_192(benchmark):
    """One availability sample of a settled, lossless full-mesh overlay
    (the ``fullmesh_n192`` workload takes 36): n ``route_vector`` calls
    through one shared row block. The guard is a count, so it holds on
    any machine: the n tables hold the same n published objects except
    where a broadcast is in flight or a node has measured since it last
    published, so a sample rewrites a few columns per router (measured
    68-575) where it used to copy n rows per router (n^2 = 36 864)."""
    n = 192
    rng = np.random.default_rng(12)
    ov = build_overlay(
        trace=planetlab_like(n, rng, base_loss=0.0, lossy_fraction=0.0),
        router=RouterKind.FULL_MESH,
        rng=rng,
        with_freshness=False,
    )
    ov.run(65.0)  # two routing intervals: every node has broadcast twice
    ov.route_ok_matrix()  # the first sample sets the block up
    ov.run(5.0)
    block = ov.row_block
    written = [block.columns_written]
    for _ in range(2):
        ov.route_ok_matrix()
        written.append(block.columns_written)
    first, second = np.diff(written)
    assert 0 < first <= 4 * n
    assert second <= first  # same instant: only own-row differences remain
    assert block.costs.shape == block.sums.shape == (n, n)

    ok, mask = benchmark(ov.route_ok_matrix)
    assert mask.all()
    assert ok.sum() == n * (n - 1)  # lossless and static: every route works


def test_perf_recommendation_receive_256(benchmark, monkeypatch):
    """One node's round-2 receive work for one routing interval at
    n = 256: a message from each of its 30 rendezvous servers, 29
    entries each (the server's other clients), cut from one ``(2,
    total)`` entry array per sender as ``_send_recommendations`` cuts
    them. The guards: no message takes the scalar path, and the route
    state left behind is the one-entry-at-a-time oracle's."""
    n = 256
    rng = np.random.default_rng(24)
    ov = build_overlay(
        trace=uniform_random_metric(n, rng),
        router=RouterKind.QUORUM,
        rng=rng,
        with_freshness=False,
    )
    for node in ov.nodes:
        node.stop()  # the clock stands still: every round writes the same state
    router = ov.nodes[0].router
    me, members = router.me_idx, router.view.members
    messages = []
    for server in router.grid.servers(me, include_self=False):
        clients = np.array(sorted(router.grid.servers(server, include_self=False)))
        table = np.stack((clients, rng.integers(0, n, clients.size)))
        entries = np.compress(clients != me, table, axis=1).T
        messages.append(
            RecommendationMessage(
                origin=members[server],
                entries=entries,
                view_version=router.wire_view_version(),
                sent_at=0.0,
            )
        )
    assert len(messages) == 30 and all(len(m.entries) == 29 for m in messages)
    scalar_path = []
    monkeypatch.setattr(
        QuorumRouter, "_apply_entries_scalar", lambda *args: scalar_path.append(args)
    )

    def receive():
        for msg in messages:
            router.on_recommendation(msg, msg.origin)

    benchmark(receive)
    assert scalar_path == []
    oracle = AllSevenOracle(n, me, timestamped=False)
    for msg in messages:
        oracle.apply(router.view.index_of(msg.origin), msg.entries.tolist(), 0.0, 0.0)
    oracle.assert_router_matches(router)
    assert router.route_hop2 is None and router.route_sent_at is None
    # §4.1 evidence: every default that listed a destination covered it,
    # and no failover was adopted, so no off-default log exists.
    failover = router.failover
    for msg in messages:
        server = router.view.index_of(msg.origin)
        for dst in msg.entries[:, 0].tolist():
            if server in failover.default_pair(dst):
                assert failover.last_cover(server, dst) == 0.0, (server, dst)
    assert failover._off_default == {}


class _CountingTransport:
    """Counts what a gossip engine sends, by message type."""

    def __init__(self):
        self.sent = collections.Counter()

    def send(self, src, dst, msg):
        self.sent[type(msg).__name__] += 1


def test_perf_gossip_digest_64(benchmark):
    """One member's digest handling at n = 64 (the ``gossip_rack_n64``
    size), both ways a digest arrives: from a peer whose version vector
    equals ours — the steady state, one tuple comparison — and from one
    a single op ahead. The guard: the first sends nothing and wants
    nothing, the second pulls exactly the missing op's range."""
    n = 64
    transport = _CountingTransport()
    node = SimpleNamespace(sim=Simulator(), id=0, registered=True)
    engine = GossipMembershipNode(
        node, transport, Gossip(), 1800.0, np.random.default_rng(0)
    )
    engine.seed_bootstrap(range(n))
    engine.active = True
    # The peer's own tuples, equal to ours but not the same objects.
    vv = tuple((origin, seq) for origin, seq in engine._vv_items())
    beats = tuple((member, 1) for member in range(n))
    equal = GossipDigest(origin=1, vv=vv, heartbeats=beats)
    ahead = GossipDigest(
        origin=1, vv=tuple((o, s + (o == 1)) for o, s in vv), heartbeats=beats
    )

    engine.on_message(equal, 1)
    assert not transport.sent and not engine._want_vv
    engine.on_message(ahead, 1)
    assert transport.sent == {"GossipPull": 1} and engine._want_vv == {1: 2}

    def receive():
        engine.on_message(equal, 1)
        engine.on_message(ahead, 1)

    benchmark(receive)
    assert set(transport.sent) == {"GossipPull"}


def test_overlay_linkstate_memory_is_subquadratic():
    """Regression guard on the benchmark's own ``steady_n256`` workload
    (seed 42, 45 sim-s): every node's link-state store stays at
    O(n * sqrt(n)) bytes, far below the dense n^2 footprint, while the
    overlay routes. The n = 1024 / 2048 / 4096 rungs are ``bench.child``
    runs of the same builder (``bench/README.md``)."""
    workload = WORKLOADS["steady_n256"]
    overlay = workload.build(42, workload.n, workload.duration_s).overlay
    overlay.run(workload.duration_s)
    n = overlay.n
    table_bytes = max(node.router.table.nbytes() for node in overlay.nodes)
    # What one dense n x n table would cost: latency and loss float64,
    # alive bool, and per-row time and version.
    dense_bytes = n * n * (8 + 8 + 1) + n * (8 + 8)
    # Dense would be ~1.1 MB/node; the sparse store must stay an order
    # of magnitude below and inside the O(n^1.5) envelope.
    assert table_bytes < dense_bytes / 8
    assert table_bytes < 60 * n * math.isqrt(n) + 64 * n
    # The overlay must actually have routed while doing so.
    ok, mask = overlay.route_ok_matrix()
    assert ok.sum() / (mask.sum() * (mask.sum() - 1)) > 0.9
    assert overlay.transport.coalesced_count > 0
