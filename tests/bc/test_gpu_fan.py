"""Unit tests for the GPU-FAN scalability model."""

from repro.bc.gpu_fan import predecessor_matrix_bytes, supports_graph
from repro.graph.generators import watts_strogatz
from repro.gpusim.spec import GTX_TITAN


class TestPredecessorMatrix:
    def test_quadratic(self):
        assert predecessor_matrix_bytes(1000) == 1_000_000
        assert predecessor_matrix_bytes(0) == 0

    def test_dominates_footprint_at_scale(self):
        from repro.gpusim.memory import strategy_footprint

        g = watts_strogatz(20_000, k=4, p=0.1, seed=0)
        fp = strategy_footprint(g, "gpu-fan", num_blocks=1)
        assert fp["gpu-fan predecessor matrix (O(n^2))"] == \
            predecessor_matrix_bytes(g.num_vertices)
        assert fp["gpu-fan predecessor matrix (O(n^2))"] > \
            10 * fp["graph CSR"]


class TestSupportsGraph:
    def test_small_graph_fits(self, fig1):
        assert supports_graph(fig1, GTX_TITAN.memory_bytes)

    def test_cliff(self):
        """The 6 GB cliff sits near n = sqrt(6 GiB) ~ 80k vertices."""
        fits = watts_strogatz(70_000, k=4, p=0.1, seed=0)
        dies = watts_strogatz(90_000, k=4, p=0.1, seed=0)
        assert supports_graph(fits, GTX_TITAN.memory_bytes)
        assert not supports_graph(dies, GTX_TITAN.memory_bytes)

    def test_threshold_scales_with_memory(self, small_sw):
        need = predecessor_matrix_bytes(small_sw.num_vertices)
        assert not supports_graph(small_sw, need // 2)
        assert supports_graph(small_sw, need * 2)
