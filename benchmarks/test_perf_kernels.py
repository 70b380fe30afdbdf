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
one gossip digest received in the steady state and one op behind,
and the Fig. 8 failure table's all-sources ground truth.

CI runs this file with ``--benchmark-disable`` (check mode): every
benchmark body executes once as a plain test, so the regression
*guards* (assertions on memory bounds and routability) gate merges
while the statistical timings remain a local/bench-host tool.
"""

import collections
import gc
import itertools
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from failover_state import last_cover  # tests/core, via conftest
from reference_recommendations import AllArraysOracle  # tests/overlay, via conftest
from reference_routes import best_one_hops  # tests/overlay, via conftest

from bench.workloads import WORKLOADS, stratified_node_classes  # the repo root, via conftest
from repro.core import failover
from repro.core.failover import FailoverManager
from repro.core.grid import GridQuorum
from repro.core.onehop import best_one_hop_all_pairs
from repro.core.protocol import run_two_round
from repro.net.failures import build_failure_table
from repro.core.quorum import GridQuorumSystem
from repro.net.simulator import Simulator
from repro.net.packet import GossipDigest, RecommendationMessage
from repro.net.trace import planetlab_like, uniform_random_metric
from repro.overlay.config import RouterKind
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
    return LinkStateRow(idx, rng.uniform(5.0, 400.0, n), np.ones(n, dtype=bool))


def _filled_sparse_table(n, rows, seed=0):
    table = SparseLinkStateTable(n)
    rng = np.random.default_rng(seed)
    held = rng.choice(n, size=rows, replace=False)
    for idx in held:
        table.update_row(int(idx), _published_row(rng, n, int(idx)), 0.0)
    return table, np.sort(held)


def _round2_rows(m, n, seed):
    """``m`` clients' cost rows over ``n`` destinations in
    ``LinkStateRow``'s normal form (entries ``>= 0`` or ``inf``, a
    client's own entry 0), built so the kernel's corner cases occur:
    latencies drawn from 39 values (ties on most pairs), every 17th
    destination unreachable from every client (``inf`` columns), 5 %
    dead links, and one dead client (``inf`` but for its own 0)."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(n, size=m, replace=False))
    rows = rng.integers(1, 40, size=(m, n)) * 2.5
    rows[rng.random((m, n)) < 0.05] = np.inf
    rows[:, ::17] = np.inf
    rows[m // 2] = np.inf
    rows[np.arange(m), ids] = 0.0
    return rows


@pytest.mark.parametrize("m, n", [(64, 1024), (90, 2048), (128, 4096)])
def test_perf_round2_kernel(benchmark, m, n):
    """Round 2's min-plus (``QuorumRouter._best_one_hops``) over the
    ~2 sqrt(n) client rows a rendezvous holds at n = 1024, 2048 and 4096:
    ``(pair_hop, pair_ok)`` bit for bit equal to the one-client-at-a-time
    reference, first index on ties. A kernel change is judged here first."""
    rows = _round2_rows(m, n, seed=m)
    pair_hop, pair_ok = benchmark.pedantic(
        QuorumRouter._best_one_hops, args=(rows,), rounds=3, iterations=1
    )
    want_hop, want_ok = best_one_hops(rows)
    assert pair_hop.dtype == want_hop.dtype and np.array_equal(pair_hop, want_hop)
    assert pair_ok.dtype == want_ok.dtype and np.array_equal(pair_ok, want_ok)
    # The planted cases occur: tied minima, and pairs with no finite one.
    sums = rows[0] + rows[1:]
    assert (np.count_nonzero(sums == sums.min(axis=1, keepdims=True), axis=1) > 1).any()
    assert not pair_ok[m // 2].all() and pair_ok[0, 1]


def test_perf_sparse_update_and_minplus_2048(benchmark):
    """One routing tick's table work at n=2048: a published row installed
    by reference, the ~2 sqrt(n) held cost rows gathered into one matrix,
    and the full min-plus over it."""
    n = 2048
    table, held = _filled_sparse_table(n, rows=2 * math.isqrt(n))
    rng = np.random.default_rng(1)
    # A client alternates between two published rows, so every install
    # replaces the held object as a real tick's does.
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
    assert any(table.row(int(held[0])) is row for row in fresh)


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


def test_perf_failure_table_512(benchmark):
    """One all-sources ground-truth sample of the ``linkfail`` recipe's
    failure table at n = 512 (stratified classes, 240 s, seed 42). The
    guards hold on any machine: ``up_matrix`` equals the n per-source
    rows, and the built table stays within 15 % of its measured
    ``tracemalloc`` size, 918 272 B of flat window arrays (one
    interval-list object per failing link and a per-source dict of
    them measured 9 426 456 B)."""
    n = 512

    def build():
        rng = np.random.default_rng(42)
        classes = stratified_node_classes(n, rng)
        return build_failure_table(n, 240.0, rng, node_classes=classes)

    table = build()  # also warms up whatever the first build allocates for good
    gc.collect()
    tracemalloc.start()
    try:
        traced = build()
        gc.collect()
        with_table, _ = tracemalloc.get_traced_memory()
        del traced
        gc.collect()
        held = with_table - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.15 * 918_272

    for t in (30.0, 120.0, 200.0):
        rows = np.stack([table.up_vector(i, t) for i in range(n)])
        assert (table.up_matrix(t) == rows).all()
    m = benchmark(table.up_matrix, 120.0)
    assert (m == m.T).all() and m.diagonal().all() and not m.all()


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


class _TableBuilds:
    """Counts the failover manager's per-size default-pair tables, and
    checks at each build that no live manager already holds that size's."""

    def __init__(self, monkeypatch):
        self.sizes = []
        self.installs = 0
        self._managers = weakref.WeakSet()
        monkeypatch.setattr(failover, "_INDEX_OF_SIZE", weakref.WeakValueDictionary())
        build, set_grid = failover._default_pair_table, FailoverManager.set_grid

        def counted_build(n, *args):
            held = {mgr._index.n for mgr in self._managers if hasattr(mgr, "_index")}
            assert n not in held, f"a second table of size {n} while one is held"
            self.sizes.append(n)
            return build(n, *args)

        def counted_set_grid(mgr, grid, now):
            self.installs += 1
            self._managers.discard(mgr)  # its next index is the one it installs
            set_grid(mgr, grid, now)
            self._managers.add(mgr)

        monkeypatch.setattr(failover, "_default_pair_table", counted_build)
        monkeypatch.setattr(FailoverManager, "set_grid", counted_set_grid)


def test_bootstrap_builds_one_failover_table(monkeypatch):
    """A view install is paid once per view size, not once per router:
    bootstrapping 256 quorum routers builds one default-pair table, every
    router's pairs are a row of it, and the grid derives no router's
    pairs (it has no per-position pair method to call)."""
    builds = _TableBuilds(monkeypatch)
    overlay = WORKLOADS["steady_n256"].build(42, 256, 45.0).overlay
    assert builds.sizes == [256] and builds.installs == 256
    table = overlay.nodes[0].router.failover._index.pairs
    for node in overlay.nodes:
        assert node.router.failover._pair.base is table
    assert not hasattr(GridQuorum, "default_pairs")


def test_churn_builds_one_failover_table_per_view_size_held(monkeypatch):
    """Under join / leave / crash churn a view size's table is built when
    the first router installs that size and dropped when the last one
    leaves it (a size a router holds is never built twice), so the run
    builds one table per size it reaches, and again only for a size it
    returns to after every router left it; none outlives its holders."""
    builds = _TableBuilds(monkeypatch)
    workload = WORKLOADS["churn_n160"]
    built = workload.build(42, workload.n, workload.duration_s)
    built.overlay.run(workload.duration_s)
    # Seed 42 reaches six sizes in 1 554 installs, and returns to one
    # of them after every router left it: seven builds.
    assert len(set(builds.sizes)) >= 5 and builds.installs >= 100 * len(builds.sizes)
    assert len(builds.sizes) > len(set(builds.sizes))
    held = {
        node.router.failover._index.n for node in built.overlay.nodes if node.router.view is not None
    }
    gc.collect()
    assert set(failover._INDEX_OF_SIZE) == held


def test_perf_recommendation_receive_256(benchmark):
    """One node's round-2 receive work for one routing interval at
    n = 256: a message from each of its 30 rendezvous servers, 29
    entries each (the server's other clients), cut from one ``(2,
    total)`` entry array per sender as ``_send_recommendations`` cuts
    them. The guard: the route state left behind is the
    one-entry-at-a-time oracle's."""
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
            )
        )
    assert len(messages) == 30 and all(len(m.entries) == 29 for m in messages)
    def receive():
        for msg in messages:
            router.on_recommendation(msg, msg.origin)

    benchmark(receive)
    oracle = AllArraysOracle(n, me)
    for msg in messages:
        oracle.apply(router.view.index_of(msg.origin), msg.entries.tolist(), 0.0)
    oracle.assert_router_matches(router)
    assert router.route_hop2 is None
    # §4.1 evidence: every default that listed a destination covered it,
    # and no failover was adopted, so no off-default log exists.
    failover = router.failover
    for msg in messages:
        server = router.view.index_of(msg.origin)
        for dst in msg.entries[:, 0].tolist():
            if server in failover.default_pair(dst):
                assert last_cover(failover, server, dst) == 0.0, (server, dst)
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
    engine = GossipMembershipNode(node, transport, 1800.0, np.random.default_rng(0))
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
