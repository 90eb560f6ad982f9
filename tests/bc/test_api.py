"""Unit tests for the public BC API and the approximation."""

import numpy as np
import pytest

from repro.bc.api import bc_single_source_dependencies, betweenness_centrality
from repro.bc.approx import approximate_bc, sample_sources
from repro.bc.brandes import brandes_reference
from repro.graph.build import from_edges
from tests.conftest import random_graph


class TestBetweennessCentrality:
    # Engine-vs-Brandes value equivalence across the full graph suite
    # lives in tests/bc/test_differential.py.
    def test_matches_networkx_random(self):
        import networkx as nx

        from repro.graph.build import to_networkx

        for seed in range(3):
            g = random_graph(30, 0.12, seed)
            d = nx.betweenness_centrality(to_networkx(g), normalized=False)
            expect = np.array([d[i] for i in range(30)])
            assert np.allclose(betweenness_centrality(g), expect)

    def test_normalized(self, fig1):
        raw = betweenness_centrality(fig1)
        norm = betweenness_centrality(fig1, normalized=True)
        scale = (9 - 1) * (9 - 2) / 2
        assert np.allclose(norm, raw / scale)

    def test_sources_subset_sums(self, fig1):
        full = betweenness_centrality(fig1)
        half1 = betweenness_centrality(fig1, sources=range(0, 5))
        half2 = betweenness_centrality(fig1, sources=range(5, 9))
        assert np.allclose(full, half1 + half2)

    def test_empty_graph(self):
        g = from_edges([], num_vertices=0)
        assert betweenness_centrality(g).size == 0

    def test_edgeless_graph(self):
        g = from_edges([], num_vertices=4)
        assert np.all(betweenness_centrality(g) == 0)

    def test_directed(self):
        g = from_edges([(0, 1), (1, 2)], undirected=False)
        bc = betweenness_centrality(g)
        assert bc.tolist() == [0.0, 1.0, 0.0]

    def test_single_source_dependencies(self, fig1):
        delta = bc_single_source_dependencies(fig1, 3)
        assert delta[3] == 0.0
        total = sum(bc_single_source_dependencies(fig1, s) for s in range(9))
        assert np.allclose(total / 2.0, brandes_reference(fig1))


class TestApproximateBC:
    def test_exact_when_all_sources(self, fig1):
        est = approximate_bc(fig1, k=9, seed=0)
        assert np.allclose(est, brandes_reference(fig1))

    def test_unbiased_over_many_seeds(self, fig1):
        exact = brandes_reference(fig1)
        ests = [approximate_bc(fig1, k=4, seed=s) for s in range(60)]
        mean = np.mean(ests, axis=0)
        # The estimator is unbiased; 60 draws gets close.
        assert np.allclose(mean, exact, atol=0.12 * (exact.max() + 1))

    def test_zero_samples(self, fig1):
        assert np.all(approximate_bc(fig1, k=0) == 0)

    def test_k_capped_at_n(self, fig1):
        est = approximate_bc(fig1, k=1000, seed=1)
        assert np.allclose(est, brandes_reference(fig1))

    def test_ranking_preserved_on_clear_structure(self, fig1):
        est = approximate_bc(fig1, k=6, seed=2)
        assert np.argmax(est) == 3  # the cut vertex stays on top


class TestSampleSources:
    def test_distinct(self, small_sw):
        s = sample_sources(small_sw, 20, seed=0)
        assert np.unique(s).size == 20

    def test_negative_k(self, star):
        with pytest.raises(ValueError):
            sample_sources(star, -1)
