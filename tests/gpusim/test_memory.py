"""Unit tests for the device memory ledger (the Figure 5 OOM story)."""

import pytest

from repro.errors import DeviceOutOfMemoryError
from repro.graph.generators import kronecker_graph, watts_strogatz
from repro.gpusim.memory import (
    DeviceMemoryModel,
    graph_footprint,
    strategy_footprint,
)


class TestLedger:
    def test_alloc_and_free(self):
        mem = DeviceMemoryModel(capacity=1000)
        mem.alloc(400, "a")
        mem.alloc(400, "b")
        assert mem.in_use == 800 and mem.free == 200
        mem.free_all()
        assert mem.in_use == 0

    def test_oom(self):
        mem = DeviceMemoryModel(capacity=100)
        with pytest.raises(DeviceOutOfMemoryError) as exc:
            mem.alloc(101, "big")
        assert exc.value.requested == 101
        assert exc.value.capacity == 100
        assert "big" in str(exc.value)

    def test_oom_after_partial(self):
        mem = DeviceMemoryModel(capacity=100)
        mem.alloc(60, "x")
        with pytest.raises(DeviceOutOfMemoryError) as exc:
            mem.alloc(50, "y")
        assert exc.value.in_use == 60

    def test_negative_alloc(self):
        with pytest.raises(ValueError):
            DeviceMemoryModel(capacity=10).alloc(-1, "x")

    def test_report_merges_labels(self):
        mem = DeviceMemoryModel(capacity=100)
        mem.alloc(10, "x")
        mem.alloc(20, "x")
        assert mem.report() == {"x": 30}


class TestFootprints:
    def test_graph_footprint(self, fig1):
        assert graph_footprint(fig1) == (9 + 1) * 4 + 22 * 4

    def test_work_efficient_is_o_n(self, small_sw):
        fp = strategy_footprint(small_sw, "work-efficient", num_blocks=14)
        locals_ = fp["per-block locals (O(n))"]
        # Linear in n, independent of m.
        assert locals_ < 50 * small_sw.num_vertices * 14

    def test_edge_parallel_is_o_m(self, small_sw):
        fp = strategy_footprint(small_sw, "edge-parallel", num_blocks=14)
        assert "per-block locals (O(m) preds)" in fp

    def test_gpu_fan_is_o_n_squared(self, small_sw):
        fp = strategy_footprint(small_sw, "gpu-fan", num_blocks=14)
        n = small_sw.num_vertices
        assert fp["gpu-fan predecessor matrix (O(n^2))"] == n * n

    def test_hybrid_and_sampling_share_we_footprint(self, fig1):
        we = strategy_footprint(fig1, "work-efficient", 14)
        for s in ("hybrid", "sampling"):
            assert strategy_footprint(fig1, s, 14) == we

    def test_unknown_strategy(self, fig1):
        with pytest.raises(ValueError):
            strategy_footprint(fig1, "magic", 14)

    def test_gpu_fan_ooms_where_others_fit(self):
        """The paper's scalability cliff: on a 6 GB card GPU-FAN dies at
        a scale the O(n)/O(m) methods handle easily."""
        g = watts_strogatz(100_000, k=4, p=0.1, seed=0)
        capacity = 6 * 1024**3
        gf = sum(strategy_footprint(g, "gpu-fan", 1).values())
        we = sum(strategy_footprint(g, "work-efficient", 14).values())
        ep = sum(strategy_footprint(g, "edge-parallel", 14).values())
        assert gf > capacity       # 1e10 bytes of predecessors
        assert we < capacity // 50
        assert ep < capacity // 50

    def test_ordering_we_below_ep_below_fan(self):
        # On a dense-enough graph (avg directed degree > 16, true of
        # kron/ef16 and of every real dataset in Table II except roads)
        # the O(n) locals < O(m) predecessors < O(n^2) matrix.
        g = kronecker_graph(10, edge_factor=16, seed=0)
        we = sum(strategy_footprint(g, "work-efficient", 14).values())
        ep = sum(strategy_footprint(g, "edge-parallel", 14).values())
        gf = sum(strategy_footprint(g, "gpu-fan", 14).values())
        assert we <= ep <= gf
