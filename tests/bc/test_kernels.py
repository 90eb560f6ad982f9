"""Literal kernel re-implementations: value equality and work counts.

The work-efficient (Algorithms 1-3), edge-parallel and vertex-parallel
kernels must produce identical distances, path counts and dependencies
— they differ only in thread-to-work mapping.  These tests pin that
equivalence and the kernels' documented work characteristics.
"""

import numpy as np
import pytest

from repro.bc.brandes import brandes_reference
from repro.bc.edge_parallel import bc_edge_parallel, edge_parallel_root
from repro.bc.vertex_parallel import bc_vertex_parallel, vertex_parallel_root
from repro.bc.work_efficient import bc_work_efficient, work_efficient_root

ALL_BC = [bc_work_efficient, bc_edge_parallel, bc_vertex_parallel]


class TestWorkEfficientKernel:
    def test_state_invariants(self, fig1):
        st = work_efficient_root(fig1, 3)
        # S holds each reached vertex once, in depth order.
        assert np.unique(st.S).size == st.S.size
        depths = st.d[st.S]
        assert np.all(np.diff(depths) >= 0)
        # ends is CSR-like over S.
        assert st.ends[0] == 0 and st.ends[-1] == st.S.size
        # ends_len - 2 == max_v d[v] (Algorithm 1's comment).
        finite = st.d[st.d < np.iinfo(np.int64).max]
        assert st.max_depth == finite.max()

    def test_sigma_matches_reference(self, fig1):
        from repro.bc.brandes import brandes_single_source

        for s in range(9):
            st = work_efficient_root(fig1, s)
            _, sigma, _ = brandes_single_source(fig1, s)
            assert np.allclose(st.sigma, sigma)

    def test_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            work_efficient_root(fig1, 9)

    def test_isolated_root(self, two_components):
        st = work_efficient_root(two_components, 6)
        assert st.S.tolist() == [6]
        assert st.max_depth == 0


class TestEdgeParallelKernel:
    def test_iteration_count_is_depth_plus_one(self, path5):
        *_, iters = edge_parallel_root(path5, 0)
        # Each iteration sweeps all edges once per depth level.
        assert iters == 5

    def test_distances(self, cycle6):
        d, sigma, _, _ = edge_parallel_root(cycle6, 0)
        assert d.tolist() == [0, 1, 2, 3, 2, 1]
        assert sigma[3] == 2.0


class TestVertexParallelKernel:
    def test_distances(self, star):
        d, _, _, iters = vertex_parallel_root(star, 2)
        assert d.tolist() == [1, 2, 0, 2, 2, 2, 2]
        assert iters == 3


class TestKernelEquivalence:
    # Full-graph value equivalence across all kernels, strategies and
    # structural classes lives in tests/bc/test_differential.py; only
    # behaviour the matrix cannot express (source subsets) stays here.
    def test_subset_sources(self, fig1):
        ref = brandes_reference(fig1, sources=[0, 3, 5])
        for fn in ALL_BC:
            assert np.allclose(fn(fig1, sources=[0, 3, 5]), ref)
