"""How per-destination state is laid out: narrow where it is a position,
shared where it depends only on the view or its size.

A node's routing state grows with the view: ``n`` nodes each hold arrays
over ``n`` destinations, which sets the simulator's memory per ordered
pair. These tests pin, at small ``n``, each fact that keeps that figure
down:

* view positions are stored as int32 (route hops and senders, default
  rendezvous pairs);
* the underlay id of every view position is one read-only array held by
  the view, so routers that hold one view object share it;
* the all-dead row of a never-received position is a window into one
  vector per table size;
* a lossless topology holds no ``(n, n)`` loss matrix, and draws nothing;
* the router, failover and table arrays over destinations stay within a
  byte budget per destination;
* the measurement layer holds a few bytes per ordered pair: an int32
  sample index per open disruption window, 8 B per closed one, and
  bandwidth bins sized to the buckets written.
"""

import tracemalloc

import numpy as np
import pytest

from repro.net.topology import Topology
from repro.net.trace import uniform_random_metric
from repro.overlay.config import OverlayConfig, RouterKind
from repro.overlay.router_quorum import _FailoverStream
from repro.overlay.harness import build_overlay
from repro.errors import ConfigError
from repro.overlay.linkstate import LinkStateTable, SparseLinkStateTable
from repro.overlay.stats import BandwidthRecorder, DisruptionRecorder

N = 16


def overlay(router=RouterKind.QUORUM, n=N, seed=3, **kwargs):
    rng = np.random.default_rng(seed)
    return build_overlay(
        trace=uniform_random_metric(n, rng), router=router, rng=rng, with_freshness=False, **kwargs
    )


def routers(ov):
    return [node.router for node in ov.nodes if node.router.view is not None]


def owned_bytes_per_destination(obj, n):
    """Bytes of the arrays over ``n`` destinations that ``obj`` owns:
    every ndarray attribute whose first axis is ``n`` and whose memory is
    its own (a view, a broadcast or a shared array costs nothing here)."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    total = 0
    for name in names:
        arr = getattr(obj, name, None)
        if isinstance(arr, np.ndarray) and arr.ndim and arr.shape[0] == n and arr.flags.owndata:
            total += arr.nbytes
    return total / n


class TestNarrowPositions:
    @pytest.mark.parametrize("verify", [False, True])
    def test_route_positions_are_int32(self, verify):
        ov = overlay(config=OverlayConfig(verify_recommendations=verify))
        ov.run(60.0)
        for router in routers(ov):
            for name in ("route_hop", "route_server") + (
                ("route_hop2", "route_server2") if verify else ()
            ):
                assert getattr(router, name).dtype == np.int32, name
            assert router.route_time.dtype == np.float64

    def test_int32_survives_a_view_delta(self):
        ov = overlay(active_members=range(N - 1))
        ov.run(30.0)
        ov.join_node(N - 1)
        ov.run(30.0)
        for router in routers(ov):
            assert router.view.n == N
            assert router.route_hop.dtype == router.route_server.dtype == np.int32
            assert router.failover._pair.dtype == np.int32

    def test_default_pairs_are_int32_rows_of_one_read_only_table(self):
        ov = overlay()
        table = routers(ov)[0].failover._index.pairs
        assert table.dtype == np.int32 and table.shape == (N, N, 2)
        assert not table.flags.writeable
        for router in routers(ov):
            pair = router.failover._pair
            assert pair.dtype == np.int32 and pair.shape == (N, 2)
            assert pair.base is table and np.shares_memory(pair, table[router.me_idx])
            dst = (router.me_idx + 1) % N
            assert router.failover.default_pair(dst) == tuple(
                s for s in table[router.me_idx, dst].tolist() if s >= 0
            )


class TestSharedPerView:
    def test_routers_of_one_view_share_one_read_only_id_array(self):
        ov = overlay()
        ov.run(20.0)
        held = routers(ov)
        view = held[0].view
        assert all(r.view is view for r in held)  # out-of-band: one object
        ids = view.member_ids
        assert all(r.member_ids is ids for r in held)
        assert ids.dtype == np.int64 and ids.tolist() == list(view.members)
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = 1

    def test_a_new_view_brings_its_own_shared_array(self):
        ov = overlay(active_members=range(N - 1))
        ov.run(20.0)
        old = routers(ov)[0].member_ids
        ov.join_node(N - 1)
        ov.run(20.0)
        held = routers(ov)
        ids = held[0].view.member_ids
        assert ids is not old and ids.tolist() == list(range(N))
        assert all(r.member_ids is ids for r in held)

    def test_full_mesh_tables_of_one_size_share_one_unheard_window(self):
        ov = overlay(router=RouterKind.FULL_MESH, n=12)  # built, not run: no row received yet
        window = LinkStateTable(12).cost_row(0).base
        for router in routers(ov):
            unheard = router.table.cost_row((router.me_idx + 1) % 12)
            assert unheard.base is window and not unheard.flags.writeable
        assert SparseLinkStateTable(12).cost_row(5).base is window
        assert LinkStateTable(13).cost_row(0).base is not window
        assert np.array_equal(LinkStateTable(12).cost_row(3), np.where(np.arange(12) == 3, 0.0, np.inf))

    def test_a_table_owns_only_its_receive_times(self):
        table = SparseLinkStateTable(N)
        assert owned_bytes_per_destination(table, N) == 8
        assert table.nbytes() == 8 * N


class TestFailoverStream:
    """A router's failover Generator is built on its first draw."""

    def test_a_node_that_never_adopts_builds_no_generator(self):
        ov = overlay()
        ov.run(60.0)
        for router in routers(ov):
            assert router.counters.get("failover_adoptions") == 0
            assert router._rng._generator is None

    def test_the_first_draw_builds_the_seeded_generator(self):
        stream, generator = _FailoverStream(0x5EED), np.random.default_rng(0x5EED)
        highs = (5, 3, 9, 2, 40, 1, 7)
        assert [stream.integers(k) for k in highs] == [generator.integers(k) for k in highs]


class TestLosslessTopology:
    @pytest.mark.parametrize("zeros", [False, True])
    def test_holds_no_loss_matrix(self, zeros):
        rtt = uniform_random_metric(8, np.random.default_rng(0)).rtt_ms
        topo = Topology(rtt, np.zeros_like(rtt) if zeros else None)
        assert topo._loss is None
        assert topo.loss_probability(1, 2) == 0.0
        assert np.array_equal(topo.loss_vector(3), np.zeros(8))
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        assert all(topo.packet_delivered(0, j, 1.0, rng) for j in range(8))
        delivered, _ = topo.deliver_many(0, np.arange(8), 1.0, rng)
        assert delivered.all()
        assert rng.bit_generator.state == state  # nothing drawn

    def test_a_lossy_topology_keeps_its_matrix(self):
        rtt = uniform_random_metric(8, np.random.default_rng(0)).rtt_ms
        loss = np.full_like(rtt, 0.25)
        topo = Topology(rtt, loss)
        assert topo._loss is not None and topo.loss_probability(1, 2) == 0.25
        assert np.array_equal(topo.loss_vector(3), loss[3])

    def test_an_overlay_on_a_lossless_trace_holds_none(self):
        assert overlay().topology._loss is None


class TestByteBudget:
    """Router + failover + table arrays over destinations: route hop and
    sender (4 + 4), route time (8), cover times (16), last-message times
    (8), receive times (8) — and the expecting-since times (16) once a
    view delta has carried them over. The default pairs are a row of the
    view size's shared table."""

    def per_destination(self, router):
        n = router.view.n
        return sum(
            owned_bytes_per_destination(obj, n)
            for obj in (router, router.failover, router.table)
        )

    def test_first_view(self):
        ov = overlay()
        ov.run(60.0)
        for router in routers(ov):
            assert self.per_destination(router) <= 48

    def test_after_a_view_delta(self):
        ov = overlay(active_members=range(N - 1))
        ov.run(30.0)
        ov.join_node(N - 1)
        ov.run(30.0)
        budgets = [self.per_destination(r) for r in routers(ov)]
        assert max(budgets) <= 64


class TestRecorderLayout:
    def test_open_windows_are_int32_sample_indices(self):
        recorder = DisruptionRecorder(N)
        assert recorder._down_since.dtype == np.int32
        assert recorder._down_since.nbytes == 4 * N * N
        active = np.ones(N, dtype=bool)
        recorder.sample(5.0, np.zeros((N, N), dtype=bool), active)
        recorder.sample(10.0, np.zeros((N, N), dtype=bool), active)
        opened = recorder._down_since[~np.eye(N, dtype=bool)]
        assert (opened == 0).all()  # the first sample's index, still open
        assert recorder.open_disruptions() == N * (N - 1)

    def test_a_bootstrap_closing_sample_stores_8_bytes_per_pair(self):
        recorder = DisruptionRecorder(N)
        active = np.ones(N, dtype=bool)
        recorder.sample(5.0, np.zeros((N, N), dtype=bool), active)
        recorder.sample(10.0, np.ones((N, N), dtype=bool), active)
        (chunk,) = recorder._closed
        arrays = [part for part in chunk if isinstance(part, np.ndarray)]
        closed = N * (N - 1)
        assert all(arr.shape == (closed,) for arr in arrays)
        assert sum(arr.nbytes for arr in arrays) <= 8 * closed
        assert len(recorder.events()) == closed and recorder.open_disruptions() == 0

    def test_bins_hold_at_most_twice_the_buckets_written(self):
        ov = overlay()
        ov.run(45.0)
        bins = ov.bandwidth._bins
        assert bins
        for arr in bins.values():
            assert arr.shape[1] <= 2 * 5  # 45 s of 10-s buckets
        bw = BandwidthRecorder(4, bucket_s=1.0)
        for t in (3.0, 4.0, 9.0, 30.0, 31.0, 100.0):
            bw.record_out(1, "ls", 1, t)
            assert bw._bins[("out", "ls")].shape[1] <= 2 * (int(t) + 1)

    def test_a_recorder_too_large_for_int32_pairs_raises_before_allocating(self):
        assert DisruptionRecorder.MAX_N ** 2 < 2**31 <= (DisruptionRecorder.MAX_N + 1) ** 2
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="int32"):
                DisruptionRecorder(46_341)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
