"""Unit tests for batched multi-root BC on the lockstep root loop."""

import numpy as np
import pytest

from repro.bc.api import betweenness_centrality
from repro.bc.batched import batched_betweenness_centrality, batched_dependencies
from repro.graph.build import from_edges


class TestBatchedDependencies:
    def test_rows_match_per_root(self, fig1):
        from repro.bc.api import bc_single_source_dependencies

        roots = np.arange(9)
        delta = batched_dependencies(fig1, roots)
        for r, s in enumerate(roots):
            assert np.allclose(delta[r], bc_single_source_dependencies(fig1, s))

    def test_empty_batch(self, fig1):
        assert batched_dependencies(fig1, np.array([])).shape == (0, 9)

    def test_roots_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            batched_dependencies(fig1, np.array([99]))

    def test_duplicate_roots_allowed(self, fig1):
        delta = batched_dependencies(fig1, np.array([3, 3]))
        assert np.allclose(delta[0], delta[1])


class TestBatchedBC:
    @pytest.mark.parametrize("batch_size", [1, 3, 7, 64])
    def test_matches_engine(self, fig1, batch_size):
        got = batched_betweenness_centrality(fig1, batch_size=batch_size)
        assert np.allclose(got, betweenness_centrality(fig1))

    # Batched-vs-Brandes value equivalence across graph structures
    # (incl. disconnected and directed) lives in
    # tests/bc/test_differential.py.
    def test_sources_subset(self, fig1):
        got = batched_betweenness_centrality(fig1, sources=[0, 4, 8])
        assert np.allclose(got, betweenness_centrality(fig1,
                                                       sources=[0, 4, 8]))

    def test_normalized(self, fig1):
        got = batched_betweenness_centrality(fig1, normalized=True)
        assert np.allclose(got, betweenness_centrality(fig1, normalized=True))

    def test_bad_batch_size(self, fig1):
        with pytest.raises(ValueError):
            batched_betweenness_centrality(fig1, batch_size=0)

    @staticmethod
    def _overflow_graph():
        """Deep wide-path graph whose path counts overflow float64."""
        edges = []
        prev = [0]
        nxt = 1
        for _ in range(380):  # 8^379 >> float64 max (~1.8e308)
            layer = list(range(nxt, nxt + 8))
            nxt += 8
            edges.extend((p, q) for p in prev for q in layer)
            prev = layer
        return from_edges(edges)

    def test_overflowing_path_counts_stay_exact(self):
        """Path counts past float64 range are rescaled per level by the
        root loop the batches run on, so a deep wide-path graph needs
        no fallback: the batch's rows equal the per-root engine's."""
        from repro.bc.api import bc_single_source_dependencies

        g = self._overflow_graph()
        delta = batched_dependencies(g, np.array([0, 5]))
        for r, s in enumerate((0, 5)):
            assert np.array_equal(delta[r],
                                  bc_single_source_dependencies(g, s))
        got = batched_betweenness_centrality(g, sources=[0, 1, 2],
                                             batch_size=2, fold=False)
        expect = betweenness_centrality(g, sources=[0, 1, 2], fold=False)
        assert np.allclose(got, expect, rtol=1e-9)

    def test_metrics_count_every_sweep(self, fig1):
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        batched_betweenness_centrality(fig1, batch_size=4, metrics=metrics,
                                       fold=False)
        assert metrics.counter("frontier.sweeps").value == 9.0

    def test_isolated_roots(self, two_components):
        got = batched_betweenness_centrality(two_components, sources=[6])
        assert np.all(got == 0)


@pytest.mark.parametrize("graph", ["fig1", "small_kron", "directed"])
def test_batch_charge_is_its_roots_summed_profiles(graph):
    """Each batch is charged from the depth-aligned sums of its roots'
    own frontier profiles: its per-depth frontier and edge frontier
    equal the sums over the same roots' work-efficient traces."""
    from repro.gpusim.device import Device
    from tests.gpusim.test_golden_digests import GRAPHS, PARAMS

    g = GRAPHS[graph]()
    kw = dict(PARAMS["batched"], gamma=1000.0)
    run = Device().run_bc(g, strategy="batched", **kw)
    assert run.sampling_chose_edge_parallel is True
    per_root = Device().run_bc(g, strategy="work-efficient").trace.roots
    batches = run.trace.roots[run.fixed_roots:]
    assert batches
    size = run.roots_per_trace
    for j, batch in enumerate(batches):
        lo = run.fixed_roots + j * size
        want: dict = {}
        for rt in per_root[lo:lo + size]:
            for lv in rt.levels:
                if lv.stage == "forward":
                    pairs, edges = want.get(lv.depth, (0, 0))
                    want[lv.depth] = (pairs + lv.frontier_size,
                                      edges + lv.edge_frontier)
        got = {lv.depth: (lv.frontier_size, lv.edge_frontier)
               for lv in batch.levels if lv.stage == "forward"}
        assert got == want
