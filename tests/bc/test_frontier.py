"""Unit tests for the vectorised forward sweep (Stage 1)."""

import numpy as np
import pytest

from repro.bc.brandes import brandes_single_source
from repro.bc.frontier import SIGMA_RESCALE_LIMIT, forward_sweep
from repro.graph.build import from_edges


class TestForwardSweep:
    def test_matches_serial_reference(self, fig1, cycle6, small_sw):
        for g in (fig1, cycle6, small_sw):
            for s in (0, g.num_vertices // 2):
                fwd = forward_sweep(g, s)
                d, sigma, _ = brandes_single_source(g, s)
                assert np.array_equal(fwd.distances, d)
                assert np.allclose(fwd.sigma, sigma)

    def test_levels_are_s_array_segments(self, fig1):
        fwd = forward_sweep(fig1, 3)
        ends = fwd.ends()
        s_arr = fwd.s_array()
        # ends is CSR-like over S: segment i holds the depth-i vertices.
        assert ends[0] == 0 and ends[-1] == s_arr.size
        for depth, lv in enumerate(fwd.levels):
            seg = s_arr[ends[depth]:ends[depth + 1]]
            assert sorted(seg.tolist()) == sorted(lv.tolist())

    def test_ends_len_invariant(self, fig1, path5):
        # Algorithm 1 invariant: ends_len == max depth + 2.
        for g, s in ((fig1, 0), (path5, 0)):
            fwd = forward_sweep(g, s)
            assert fwd.ends().size == fwd.max_depth + 2

    def test_isolated_root(self, two_components):
        fwd = forward_sweep(two_components, 6)
        assert fwd.max_depth == 0
        assert fwd.sigma[6] == 1.0
        assert np.all(fwd.sigma[np.arange(6)] == 0)

    def test_source_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            forward_sweep(fig1, 100)

    def test_level_sequence(self, path5):
        fwd = forward_sweep(path5, 0)
        sizes = [lv.size for lv in fwd.levels] + [0]
        steps = [(d, sizes[d], sizes[d + 1]) for d in range(len(fwd.levels))]
        # 5 levels; the last has an empty next queue.
        assert steps == [(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 0)]

    def test_sigma_counts_parallel_paths(self):
        # Diamond: 0-1, 0-2, 1-3, 2-3: two shortest paths 0->3.
        g = from_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        fwd = forward_sweep(g, 0)
        assert fwd.sigma.tolist() == [1, 1, 1, 2]

    def test_level_scales_default_one(self, fig1):
        fwd = forward_sweep(fig1, 0)
        assert np.all(fwd.level_scales == 1.0)
        assert fwd.level_scales.size == len(fwd.levels)


class TestSigmaRescaling:
    def _wide_path(self, segments: int, width: int = 4):
        """Chain of complete bipartite blocks: sigma multiplies by
        ``width`` per segment -> forces rescaling for enough segments."""
        edges = []
        prev = [0]
        nxt = 1
        for _ in range(segments):
            layer = list(range(nxt, nxt + width))
            nxt += width
            edges.extend((p, q) for p in prev for q in layer)
            prev = layer
        return from_edges(edges)

    def test_no_rescale_small(self):
        g = self._wide_path(10)
        fwd = forward_sweep(g, 0)
        assert np.all(fwd.level_scales == 1.0)
        assert fwd.sigma.max() == 4 ** 9  # true counts intact

    def test_rescale_triggers_and_bounds_sigma(self):
        # 4^k > 1e100 needs k > 166 segments.
        g = self._wide_path(200)
        fwd = forward_sweep(g, 0)
        assert np.any(fwd.level_scales > 1.0)
        assert np.isfinite(fwd.sigma).all()
        assert fwd.sigma.max() <= SIGMA_RESCALE_LIMIT

    def test_rescaled_bc_still_correct(self):
        # BC of the chain is computable exactly: with w parallel
        # vertices per layer, every interior layer vertex has the same
        # score by symmetry; compare against the serial reference on a
        # depth where reference floats still hold, after forcing
        # rescaling via a tiny limit.
        import repro.bc.frontier as fr

        g = self._wide_path(12)
        from repro.bc.api import betweenness_centrality

        expect = betweenness_centrality(g)
        old = fr.SIGMA_RESCALE_LIMIT
        try:
            fr.SIGMA_RESCALE_LIMIT = 10.0  # rescale on almost every level
            got = betweenness_centrality(g)
        finally:
            fr.SIGMA_RESCALE_LIMIT = old
        assert np.allclose(expect, got, rtol=1e-9)
