"""Unit tests for the dependency accumulation (Stage 2)."""

import numpy as np
import pytest

from repro.bc.accumulation import accumulate_level, dependency_accumulation
from repro.bc.frontier import forward_sweep
from repro.graph.build import from_edges


class TestDependencyAccumulation:
    def test_matches_brandes_dependencies(self, fig1):
        # delta_s(v) from Eq. 2, cross-checked against a hand-rolled
        # predecessor-based Brandes accumulation.
        from collections import deque

        for s in range(9):
            fwd = forward_sweep(fig1, s)
            got = dependency_accumulation(fig1, fwd)

            d, sigma = fwd.distances, fwd.sigma
            order = [v for lv in fwd.levels for v in lv.tolist()]
            delta = np.zeros(9)
            for w in reversed(order):
                for v in fig1.neighbors(w):
                    if d[v] == d[w] - 1:
                        delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
            delta[s] = 0.0
            assert np.allclose(got, delta)

    def test_root_has_zero_delta(self, small_sw):
        fwd = forward_sweep(small_sw, 5)
        delta = dependency_accumulation(small_sw, fwd)
        assert delta[5] == 0.0

    def test_deepest_level_zero(self, path5):
        fwd = forward_sweep(path5, 0)
        delta = dependency_accumulation(path5, fwd)
        assert delta[4] == 0.0  # leaf at max depth has no successors

    def test_unreachable_zero(self, two_components):
        fwd = forward_sweep(two_components, 0)
        delta = dependency_accumulation(two_components, fwd)
        assert np.all(delta[[3, 4, 5, 6]] == 0.0)

    def test_dag_edges_per_level(self, path5):
        # 0-1-2-3-4 from 0: each level's only DAG edge leads one hop on.
        fwd = forward_sweep(path5, 0)
        edges = [(owner.tolist(), succ.tolist()) for owner, succ in fwd.dag]
        assert edges == [([0], [1]), ([0], [2]), ([0], [3]), ([0], [4]),
                         ([], [])]

    def test_single_vertex_graph(self):
        g = from_edges([], num_vertices=1)
        fwd = forward_sweep(g, 0)
        delta = dependency_accumulation(g, fwd)
        assert delta.tolist() == [0.0]


class TestAccumulateLevel:
    def test_empty_level_noop(self, fig1):
        fwd = forward_sweep(fig1, 0)
        delta = np.zeros(9)
        none = np.empty(0, dtype=np.int64)
        accumulate_level(none, none, none, fwd.sigma, delta)
        assert np.all(delta == 0)

    def test_level_without_successors_untouched(self, path5):
        fwd = forward_sweep(path5, 0)
        delta = np.full(5, -1.0)
        owner, succ = fwd.dag[4]
        accumulate_level(fwd.levels[4], owner, succ, fwd.sigma, delta)
        assert delta[4] == -1.0  # no successors => no write

    def test_sigma_ratio_scale(self, path5):
        fwd = forward_sweep(path5, 0)
        owner, succ = fwd.dag[3]
        base = np.zeros(5)
        accumulate_level(fwd.levels[3], owner, succ, fwd.sigma, base)
        scaled = np.zeros(5)
        accumulate_level(fwd.levels[3], owner, succ, fwd.sigma, scaled,
                         sigma_ratio_scale=0.5)
        assert scaled[3] == pytest.approx(base[3] * 0.5)
