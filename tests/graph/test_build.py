"""Unit tests for graph builders and transforms."""

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.graph.build import (
    dedupe_edges,
    from_edges,
    from_networkx,
    induced_subgraph,
    largest_connected_component,
    relabel,
    symmetrize_edges,
    to_networkx,
)


class TestFromEdges:
    def test_empty(self):
        g = from_edges([])
        assert g.num_vertices == 0 and g.num_edges == 0

    def test_isolated_trailing_vertices(self):
        g = from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.isolated_vertices().tolist() == [2, 3, 4]

    def test_num_vertices_too_small(self):
        with pytest.raises(GraphStructureError):
            from_edges([(0, 5)], num_vertices=3)

    def test_negative_endpoint(self):
        with pytest.raises(GraphStructureError):
            from_edges([(-1, 2)])

    def test_dedupe_and_self_loops(self):
        g = from_edges([(0, 1), (1, 0), (0, 1), (2, 2)], num_vertices=3)
        assert g.num_edges == 1
        assert g.degree(2) == 0

    def test_directed(self):
        g = from_edges([(0, 1), (1, 2)], undirected=False)
        assert g.num_edges == 2
        assert g.degree(2) == 0  # no reverse edges

    def test_symmetric_storage(self):
        g = from_edges([(0, 1)])
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0]

    def test_already_symmetric_no_double(self):
        sym = symmetrize_edges(np.array([(0, 1), (1, 2)]))
        g = from_edges(sym, undirected=True, already_symmetric=True)
        assert g.num_edges == 2

    def test_build_peak_memory_is_about_one_key_array(self):
        """Symmetrising, dropping loops and repeats, and the CSR arrays
        all live in one int64 key array: the build's peak stays within
        2.5x the bytes of the pairs it is given."""
        import tracemalloc

        from repro.graph.generators.kronecker import rmat_edges

        edges = rmat_edges(14, 16 << 14, seed=0)
        tracemalloc.start()
        try:
            from_edges(edges, 1 << 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * edges.nbytes


class TestEdgeHelpers:
    def test_symmetrize(self):
        out = symmetrize_edges(np.array([(0, 1)]))
        assert sorted(map(tuple, out.tolist())) == [(0, 1), (1, 0)]

    def test_dedupe_keeps_loops_when_asked(self):
        out = dedupe_edges(np.array([(1, 1), (0, 1)]), drop_self_loops=False)
        assert (1, 1) in set(map(tuple, out.tolist()))

    def test_dedupe_empty(self):
        assert dedupe_edges(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)

    def test_dedupe_sorted_by_source_then_target(self):
        out = dedupe_edges(np.array([(2, 0), (0, 3), (2, 0), (0, 1), (1, 1)]))
        assert out.tolist() == [[0, 1], [0, 3], [2, 0]]

    @pytest.mark.parametrize("edges", [[(0, 1), (-3, 2)], [(-1, -1)]])
    def test_dedupe_rejects_negative_endpoint(self, edges):
        with pytest.raises(GraphStructureError, match="non-negative"):
            dedupe_edges(np.array(edges))

    def test_dedupe_rejects_vertex_count_beyond_int64_keys(self):
        with pytest.raises(GraphStructureError, match="int64 edge keys"):
            dedupe_edges(np.array([(0, 2**32)]))

    def test_dedupe_accepts_largest_keyable_vertex_count(self):
        big = 3_037_000_498  # n = big + 1 is the largest with n*n < 2**63
        out = dedupe_edges(np.array([(big, 0), (0, big), (big, 0)]))
        assert out.tolist() == [[0, big], [big, 0]]


class TestNetworkX:
    def test_roundtrip(self, fig1):
        nxg = to_networkx(fig1)
        assert nxg.number_of_nodes() == 9
        assert nxg.number_of_edges() == 11
        g2 = from_networkx(nxg)
        assert np.array_equal(g2.adj, fig1.adj)

    def test_from_networkx_relabels(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_edge("c", "a")
        nxg.add_edge("a", "b")
        g = from_networkx(nxg)
        assert g.num_vertices == 3 and g.num_edges == 2

    def test_directed_roundtrip(self):
        g = from_edges([(0, 1), (1, 2)], undirected=False)
        nxg = to_networkx(g)
        assert nxg.is_directed()
        assert sorted(nxg.edges()) == [(0, 1), (1, 2)]


class TestComponents:
    def test_largest_component(self, two_components):
        sub = largest_connected_component(two_components)
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_connected_graph_unchanged_size(self, fig1):
        sub = largest_connected_component(fig1)
        assert sub.num_vertices == 9
        assert sub.num_edges == 11

    def test_empty(self):
        g = from_edges([])
        assert largest_connected_component(g).num_vertices == 0


class TestInducedSubgraph:
    def test_triangle(self, fig1):
        sub = induced_subgraph(fig1, [6, 7, 8])  # the 7-8-9 triangle
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            induced_subgraph(fig1, [100])

    def test_no_cross_edges(self, fig1):
        sub = induced_subgraph(fig1, [0, 8])  # vertices 1 and 9: not adjacent
        assert sub.num_edges == 0


class TestRelabel:
    def test_identity(self, fig1):
        g2 = relabel(fig1, np.arange(9))
        assert np.array_equal(g2.adj, fig1.adj)

    def test_reverse_preserves_structure(self, fig1):
        perm = np.arange(9)[::-1]
        g2 = relabel(fig1, perm)
        assert g2.num_edges == fig1.num_edges
        assert sorted(g2.degrees.tolist()) == sorted(fig1.degrees.tolist())

    def test_bad_permutation(self, fig1):
        with pytest.raises(GraphStructureError):
            relabel(fig1, np.zeros(9, dtype=np.int64))
        with pytest.raises(GraphStructureError):
            relabel(fig1, np.arange(5))
