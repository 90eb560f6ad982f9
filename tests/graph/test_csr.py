"""Unit tests for the CSR graph container."""

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.graph.csr import CSRGraph
from repro.graph.build import from_edges


class TestConstruction:
    def test_empty_graph(self):
        g = CSRGraph(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree == 0

    def test_single_vertex(self):
        g = CSRGraph(np.zeros(2, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert g.num_vertices == 1
        assert g.degree(0) == 0

    def test_basic_counts(self, fig1):
        assert fig1.num_vertices == 9
        assert fig1.num_edges == 11           # undirected edges
        assert fig1.num_directed_edges == 22  # stored both directions

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphStructureError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_must_match_adj(self):
        with pytest.raises(GraphStructureError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(GraphStructureError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_adjacency_out_of_range(self):
        with pytest.raises(GraphStructureError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_undirected_requires_even_adjacency(self):
        with pytest.raises(GraphStructureError):
            CSRGraph(np.array([0, 1, 1]), np.array([1]), undirected=True)

    def test_directed_odd_ok(self):
        g = CSRGraph(np.array([0, 1, 1]), np.array([1]), undirected=False)
        assert g.num_edges == 1

    def test_arrays_readonly(self, fig1):
        with pytest.raises(ValueError):
            fig1.adj[0] = 3
        with pytest.raises(ValueError):
            fig1.indptr[0] = 1


class TestAccessors:
    def test_neighbors_sorted(self, fig1):
        # from_edges builds rows in sorted order
        for v in range(fig1.num_vertices):
            nb = fig1.neighbors(v)
            assert np.all(np.diff(nb) > 0)

    def test_figure1_adjacency(self, fig1):
        # Paper vertex 4 (index 3) neighbours {1,3,5,6} -> {0,2,4,5}
        assert fig1.neighbors(3).tolist() == [0, 2, 4, 5]

    def test_neighbors_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            fig1.neighbors(9)
        with pytest.raises(IndexError):
            fig1.neighbors(-1)

    def test_degree_matches_degrees(self, fig1):
        degs = fig1.degrees
        for v in range(fig1.num_vertices):
            assert fig1.degree(v) == degs[v]

    def test_degrees_sum_to_directed_edges(self, fig1, small_sw):
        for g in (fig1, small_sw):
            assert int(g.degrees.sum()) == g.num_directed_edges

    def test_len(self, fig1):
        assert len(fig1) == 9

    def test_max_degree(self, star):
        assert star.max_degree == 6


class TestDerived:
    def test_edge_sources_aligned(self, fig1):
        src = fig1.edge_sources()
        assert src.size == fig1.num_directed_edges
        for v in range(fig1.num_vertices):
            lo, hi = fig1.indptr[v], fig1.indptr[v + 1]
            assert np.all(src[lo:hi] == v)

    def test_isolated_vertices(self, two_components):
        assert two_components.isolated_vertices().tolist() == [6]

    def test_no_isolated(self, fig1):
        assert fig1.isolated_vertices().size == 0

    def test_to_edge_list_roundtrip(self, fig1):
        el = fig1.to_edge_list()
        g2 = from_edges(el, num_vertices=9, undirected=True,
                        already_symmetric=True)
        assert np.array_equal(g2.indptr, fig1.indptr)
        assert np.array_equal(g2.adj, fig1.adj)

    def test_memory_footprint_positive(self, fig1):
        assert fig1.memory_footprint_bytes() == fig1.indptr.nbytes + fig1.adj.nbytes

    def test_with_name(self, fig1):
        g2 = fig1.with_name("renamed")
        assert g2.name == "renamed"
        assert np.array_equal(g2.adj, fig1.adj)


class TestCanonical:
    """``CSRGraph.canonical``: undirected, symmetric, rows sorted."""

    @staticmethod
    def _counted(monkeypatch):
        from repro.graph import csr

        calls = []
        real = csr._symmetric

        def spy(g, rows_sorted):
            calls.append(g)
            return real(g, rows_sorted)

        monkeypatch.setattr(csr, "_symmetric", spy)
        return calls

    def test_hand_built_canonical(self, monkeypatch):
        calls = self._counted(monkeypatch)
        # Path 0 - 1 - 2 with a repeated edge 1 - 2.
        g = CSRGraph(np.array([0, 1, 4, 6]), np.array([1, 0, 2, 2, 1, 1]))
        assert g.canonical() and g.canonical()
        assert len(calls) == 1

    def test_unsorted_rows(self, monkeypatch):
        calls = self._counted(monkeypatch)
        g = CSRGraph(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))
        assert not g.canonical() and not g.canonical()
        assert calls == []  # rejected by the row scan alone

    def test_asymmetric(self, monkeypatch):
        calls = self._counted(monkeypatch)
        # Sorted rows: 0 -> {1, 2}, nothing back.
        g = CSRGraph(np.array([0, 2, 2, 2]), np.array([1, 2]))
        assert not g.canonical() and not g.canonical()
        assert len(calls) == 1

    def test_directed_never_canonical(self, monkeypatch):
        calls = self._counted(monkeypatch)
        g = from_edges([(0, 1), (1, 0)], undirected=False)
        assert not g.canonical()
        assert calls == []

    def test_builders_mark_their_output(self, monkeypatch, small_kron,
                                        small_road):
        from repro.bc.preprocess import fold_degree_one
        from repro.graph.build import induced_subgraph

        calls = self._counted(monkeypatch)
        g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)],
                       num_vertices=6)
        assert g.canonical()
        assert induced_subgraph(g, [0, 2, 3, 5]).canonical()
        assert g.with_name("x").canonical()
        for big in (small_kron, small_road):
            fold = fold_degree_one(big)
            assert fold.rounds > 0 and fold.core.canonical()
        assert calls == []  # known at build time, never checked

    def test_checked_builds_are_checked_once(self, monkeypatch):
        from repro.graph.build import induced_subgraph

        calls = self._counted(monkeypatch)
        g = from_edges([(0, 1), (1, 0), (1, 2), (2, 1)],
                       already_symmetric=True)
        sub = induced_subgraph(g, [1, 2])
        assert sub.canonical() and g.canonical()
        assert calls == [g]
