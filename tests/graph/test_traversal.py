"""Unit tests for level-synchronous BFS."""

import numpy as np
import pytest

from repro.graph.traversal import bfs, bfs_distances, eccentricity, frontier_sizes


class TestBFS:
    def test_path_graph(self, path5):
        r = bfs(path5, 0)
        assert r.distances.tolist() == [0, 1, 2, 3, 4]
        assert r.max_depth == 4
        assert [lv.tolist() for lv in r.levels] == [[0], [1], [2], [3], [4]]

    def test_path_middle(self, path5):
        r = bfs(path5, 2)
        assert r.distances.tolist() == [2, 1, 0, 1, 2]
        assert r.max_depth == 2

    def test_star(self, star):
        r = bfs(star, 0)
        assert r.max_depth == 1
        assert r.levels[1].size == 6

    def test_unreachable(self, two_components):
        r = bfs(two_components, 0)
        assert r.distances[3] == -1
        assert r.distances[6] == -1
        assert r.num_reached == 3

    def test_isolated_source(self, two_components):
        r = bfs(two_components, 6)
        assert r.max_depth == 0
        assert r.num_reached == 1

    def test_source_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            bfs(fig1, 9)

    def test_levels_partition_reachable(self, small_sw):
        r = bfs(small_sw, 0)
        allv = np.concatenate(r.levels)
        assert np.unique(allv).size == allv.size
        assert allv.size == int((r.distances >= 0).sum())

    def test_level_distances_consistent(self, small_mesh):
        r = bfs(small_mesh, 5)
        for depth, lv in enumerate(r.levels):
            assert np.all(r.distances[lv] == depth)

    def test_matches_scipy(self, small_sw):
        import scipy.sparse as sp
        import scipy.sparse.csgraph as csgraph

        g = small_sw
        mat = sp.csr_matrix(
            (np.ones(g.adj.size), g.adj, g.indptr),
            shape=(g.num_vertices, g.num_vertices),
        )
        expect = csgraph.shortest_path(mat, method="D", unweighted=True,
                                       indices=3)
        got = bfs_distances(g, 3).astype(float)
        got[got < 0] = np.inf
        assert np.array_equal(got, expect)


class TestHelpers:
    def test_frontier_sizes(self, path5):
        assert frontier_sizes(path5, 0).tolist() == [1, 1, 1, 1, 1]

    def test_edge_frontier_sizes(self, star):
        r = bfs(star, 1)
        ef = r.edge_frontier_sizes(star)
        assert ef.tolist() == [1, 6, 5]  # leaf -> hub -> other leaves

    def test_eccentricity(self, path5, cycle6):
        assert eccentricity(path5, 0) == 4
        assert eccentricity(path5, 2) == 2
        assert eccentricity(cycle6, 0) == 3

    def test_figure1_second_frontier(self, fig1):
        # The Figure 2 premise: BFS from paper-vertex 4 has frontier
        # {1, 3, 5, 6} at the second iteration.
        r = bfs(fig1, 3)
        assert sorted((r.levels[1] + 1).tolist()) == [1, 3, 5, 6]
