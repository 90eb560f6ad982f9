"""Unit tests for strategy policies (Algorithms 4 and 5 decision rules)."""

import inspect
import math

import pytest

from repro.bc.policies import (
    ALPHA,
    BETA,
    EDGE_PARALLEL,
    MIN_FRONTIER,
    WORK_EFFICIENT,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
)
from repro.bc.sampling import DEFAULT_GAMMA, DEFAULT_N_SAMPS, choose_edge_parallel
from repro.errors import StrategyError
from repro.gpusim import Device
from repro.harness.runner import ExperimentConfig
from tests.properties.test_property_trace import select_strategy


class TestFixedPolicy:
    def test_constant(self):
        p = FixedPolicy(EDGE_PARALLEL)
        assert p.initial() == EDGE_PARALLEL
        assert p.next_strategy(EDGE_PARALLEL, 1, 100000) == EDGE_PARALLEL

    def test_unknown_strategy(self):
        with pytest.raises(StrategyError):
            FixedPolicy("magic")


class TestHybridPolicy:
    def test_paper_defaults(self):
        # One set of thresholds (paper Section IV-B/C), read by every
        # default: the policies, Device.run_bc and the unscaled harness.
        assert (ALPHA, BETA, MIN_FRONTIER) == (768, 512, 512)
        p = HybridPolicy()
        assert (p.alpha, p.beta) == (ALPHA, BETA)
        assert FrontierGuardPolicy().min_frontier == MIN_FRONTIER
        params = inspect.signature(Device.run_bc).parameters
        assert ((params["alpha"].default, params["beta"].default,
                 params["min_frontier"].default) == (ALPHA, BETA, MIN_FRONTIER))
        cfg = ExperimentConfig(scale_factor=1)
        assert (cfg.alpha, cfg.beta, cfg.min_frontier) == (ALPHA, BETA,
                                                           MIN_FRONTIER)

    def test_starts_work_efficient(self):
        # Section IV-B: a wrong edge-parallel start costs >10x, a wrong
        # work-efficient start only 2.2x, so WE is the default.
        assert HybridPolicy().initial() == WORK_EFFICIENT

    def test_small_change_keeps_strategy(self):
        p = HybridPolicy(alpha=100, beta=50)
        assert p.next_strategy(WORK_EFFICIENT, 10, 60) == WORK_EFFICIENT
        assert p.next_strategy(EDGE_PARALLEL, 1000, 950) == EDGE_PARALLEL

    def test_big_growth_selects_edge_parallel(self):
        p = HybridPolicy(alpha=100, beta=50)
        assert p.next_strategy(WORK_EFFICIENT, 10, 500) == EDGE_PARALLEL

    def test_big_shrink_selects_work_efficient(self):
        p = HybridPolicy(alpha=100, beta=50)
        assert p.next_strategy(EDGE_PARALLEL, 500, 20) == WORK_EFFICIENT

    def test_boundary_change_exactly_alpha(self):
        p = HybridPolicy(alpha=100, beta=50)
        # Q_change <= alpha keeps the strategy (Algorithm 4 line 2).
        assert p.next_strategy(WORK_EFFICIENT, 0, 100) == WORK_EFFICIENT
        assert p.next_strategy(WORK_EFFICIENT, 0, 101) == EDGE_PARALLEL

    def test_boundary_qnext_exactly_beta(self):
        p = HybridPolicy(alpha=0, beta=50)
        # Q_next > beta chooses edge-parallel (strict).
        assert p.next_strategy(WORK_EFFICIENT, 0, 50) == WORK_EFFICIENT
        assert p.next_strategy(WORK_EFFICIENT, 0, 51) == EDGE_PARALLEL

    def test_select_strategy_function_agrees(self):
        p = HybridPolicy()
        for cur in (WORK_EFFICIENT, EDGE_PARALLEL):
            for q, qn in [(0, 2000), (1000, 1010), (5000, 100), (100, 90)]:
                assert p.next_strategy(cur, q, qn) == select_strategy(
                    cur, q, qn, ALPHA, BETA)

    def test_negative_params(self):
        with pytest.raises(StrategyError):
            HybridPolicy(alpha=-1)


class TestFrontierGuardPolicy:
    def test_guard(self):
        p = FrontierGuardPolicy(min_frontier=512)
        assert p.initial() == WORK_EFFICIENT
        assert p.next_strategy(WORK_EFFICIENT, 1, 511) == WORK_EFFICIENT
        assert p.next_strategy(WORK_EFFICIENT, 1, 512) == EDGE_PARALLEL
        assert p.next_strategy(EDGE_PARALLEL, 5000, 40) == WORK_EFFICIENT


class TestSamplingDecision:
    def test_paper_defaults(self):
        assert DEFAULT_N_SAMPS == 512
        assert DEFAULT_GAMMA == 4.0

    def test_small_world_chooses_edge_parallel(self):
        # Median depth 6 on a million-vertex graph: 6 < 4*log2(1e6)=80.
        assert choose_edge_parallel([6] * 100, 1_000_000)

    def test_high_diameter_keeps_work_efficient(self):
        # Median depth 864 (rgg_n_2_20): 864 > 80.
        assert not choose_edge_parallel([864] * 100, 1_048_576)

    def test_threshold_exact(self):
        n = 1024  # 4*log2(n) = 40
        assert choose_edge_parallel([39], n)
        assert not choose_edge_parallel([40], n)

    def test_median_is_robust_to_outliers(self):
        # One stuck root should not flip the decision.
        depths = [800] * 50 + [2] * 10
        assert not choose_edge_parallel(depths, 1_048_576)

    def test_upper_median_matches_pseudocode(self):
        # keys[n_samps / 2] after sorting: the upper median for even n.
        assert choose_edge_parallel([1000, 1], 1 << 20) is False
        assert choose_edge_parallel([1, 1000], 1 << 20) is False

    def test_empty_and_tiny(self):
        assert choose_edge_parallel([], 100) is False
        assert choose_edge_parallel([1], 1) is False

    def test_gamma_scaling(self):
        n = 1 << 16
        depth = int(2 * math.log2(n))
        assert choose_edge_parallel([depth], n, gamma=4.0)
        assert not choose_edge_parallel([depth], n, gamma=1.0)
