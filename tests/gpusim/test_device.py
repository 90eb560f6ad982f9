"""Unit tests for the simulated device (scheduling, strategies, OOM)."""

import numpy as np
import pytest

from repro.bc.brandes import brandes_reference
from repro.errors import DeviceOutOfMemoryError, StrategyError
from repro.graph.generators import watts_strogatz
from repro.gpusim.device import STRATEGIES, Device, _list_schedule
from repro.gpusim.spec import GTX_TITAN


@pytest.fixture
def dev():
    return Device(GTX_TITAN)


class TestListSchedule:
    def test_single_worker_sums(self):
        makespan, per = _list_schedule([3, 1, 2], 1)
        assert makespan == 6

    def test_perfect_split(self):
        makespan, per = _list_schedule([1] * 8, 4)
        assert makespan == 2
        assert per.tolist() == [2, 2, 2, 2]

    def test_greedy_balances(self):
        makespan, _ = _list_schedule([5, 1, 1, 1, 1, 1], 2)
        assert makespan == 5

    def test_empty(self):
        makespan, per = _list_schedule([], 4)
        assert makespan == 0


class TestRunBC:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_exact(self, dev, fig1, strategy):
        run = dev.run_bc(fig1, strategy=strategy)
        assert np.allclose(run.bc, brandes_reference(fig1))
        assert run.cycles > 0
        assert run.seconds == pytest.approx(run.cycles / GTX_TITAN.clock_hz)

    def test_unknown_strategy(self, dev, fig1):
        with pytest.raises(StrategyError):
            dev.run_bc(fig1, strategy="magic")

    def test_roots_subset(self, dev, fig1):
        run = dev.run_bc(fig1, strategy="work-efficient", roots=[0, 3])
        expect = brandes_reference(fig1, sources=[0, 3])
        assert np.allclose(run.bc, expect)
        assert run.num_roots == 2

    def test_roots_out_of_range(self, dev, fig1):
        with pytest.raises(IndexError):
            dev.run_bc(fig1, roots=[42])

    def test_trace_has_one_entry_per_root(self, dev, fig1):
        run = dev.run_bc(fig1, strategy="work-efficient", roots=[1, 2, 5])
        assert [rt.root for rt in run.trace.roots] == [1, 2, 5]

    def test_makespan_between_bounds(self, dev, small_sw):
        run = dev.run_bc(small_sw, strategy="work-efficient",
                         roots=np.arange(40))
        total = run.trace.total_root_cycles
        assert run.cycles >= total / GTX_TITAN.num_sms - 1e-9
        assert run.cycles <= total

    def test_memory_report_present(self, dev, fig1):
        run = dev.run_bc(fig1, strategy="work-efficient", roots=[0])
        assert "graph CSR" in run.memory_report

    def test_check_memory_off(self, dev, fig1):
        run = dev.run_bc(fig1, strategy="work-efficient", roots=[0],
                         check_memory=False)
        assert run.memory_report == {}


class TestGPUFanOnDevice:
    def test_sequential_roots(self, dev, fig1):
        run = dev.run_bc(fig1, strategy="gpu-fan", roots=[0, 1, 2])
        assert run.cycles == pytest.approx(run.trace.total_root_cycles)

    def test_oom_at_scale(self):
        # 100k vertices -> 10 GB predecessor matrix > 6 GB.
        g = watts_strogatz(100_000, k=4, p=0.05, seed=0)
        dev = Device(GTX_TITAN)
        with pytest.raises(DeviceOutOfMemoryError):
            dev.run_bc(g, strategy="gpu-fan", roots=[0])

    def test_same_graph_fits_for_paper_method(self):
        g = watts_strogatz(100_000, k=4, p=0.05, seed=0)
        run = Device(GTX_TITAN).run_bc(g, strategy="work-efficient", roots=[0])
        assert run.cycles > 0


class TestSampling:
    def test_decision_recorded(self, dev, small_sw, small_road):
        run_sw = dev.run_bc(small_sw, strategy="sampling",
                            roots=np.arange(20), n_samps=6)
        assert run_sw.sampling_chose_edge_parallel is True
        run_rd = dev.run_bc(small_road, strategy="sampling",
                            roots=np.arange(20), n_samps=6)
        assert run_rd.sampling_chose_edge_parallel is False

    def test_fixed_phase_accounting(self, dev, small_sw):
        run = dev.run_bc(small_sw, strategy="sampling",
                         roots=np.arange(20), n_samps=6)
        assert run.fixed_roots == 6
        assert 0 < run.fixed_cycles < run.cycles

    @pytest.mark.parametrize("roots, n_samps", [
        (np.arange(20), 6),          # the first n_samps roots classify
        (np.array([7, 3, 9]), 2),    # ... in the order given
        (np.arange(3), 512),         # fewer roots than n_samps: all
    ], ids=["first-k", "unsorted", "fewer-roots"])
    def test_fixed_phase_prefix(self, dev, small_sw, roots, n_samps):
        run = dev.run_bc(small_sw, strategy="sampling", roots=roots,
                         n_samps=n_samps, fold=False)
        k = min(n_samps, roots.size)
        assert run.fixed_roots == k
        assert [rt.root for rt in run.trace.roots[:k]] == roots[:k].tolist()
        assert 0 < run.fixed_cycles <= run.cycles
        assert (run.fixed_cycles < run.cycles) == (k < roots.size)

    def test_phase2_respects_guard(self, dev, small_sw):
        run = dev.run_bc(small_sw, strategy="sampling",
                         roots=np.arange(12), n_samps=4, min_frontier=30)
        for rt in run.trace.roots[4:]:
            for lv in rt.levels:
                # The guard admits edge-parallel only on levels whose
                # frontier meets the threshold (both stages).
                if lv.strategy == "edge-parallel":
                    assert lv.frontier_size >= 30

    def test_non_strategy_kwargs_rejected_gracefully(self, dev, fig1):
        # Hybrid parameters are accepted and applied only for hybrid.
        run = dev.run_bc(fig1, strategy="hybrid", alpha=10, beta=5)
        assert np.allclose(run.bc, brandes_reference(fig1))


class TestExtrapolation:
    def test_fixed_strategy_scales_linearly(self, dev, small_sw):
        run = dev.run_bc(small_sw, strategy="work-efficient",
                         roots=np.arange(20))
        t1 = run.extrapolated_seconds(100)
        t2 = run.extrapolated_seconds(200)
        assert t2 == pytest.approx(2 * t1)

    def test_sampling_has_fixed_offset(self, dev, small_sw):
        run = dev.run_bc(small_sw, strategy="sampling",
                         roots=np.arange(20), n_samps=10)
        t1 = run.extrapolated_seconds(1000)
        t2 = run.extrapolated_seconds(1990)
        # Doubling remaining roots doubles only the steady-state part.
        steady1 = t1 - GTX_TITAN.seconds(run.fixed_cycles)
        steady2 = t2 - GTX_TITAN.seconds(run.fixed_cycles)
        assert steady2 == pytest.approx(2 * steady1)

    def test_gpu_fan_no_sm_division(self, dev, fig1):
        run = dev.run_bc(fig1, strategy="gpu-fan", roots=[0, 1])
        per_root = run.trace.total_root_cycles / 2
        expect = GTX_TITAN.seconds(per_root * 9)
        assert run.extrapolated_seconds() == pytest.approx(expect, rel=0.3)

    @pytest.mark.parametrize("verify", ["off", "sampled"])
    def test_batched_fallback_extrapolates_like_sampling(self, dev,
                                                         small_road, verify):
        """Regression: a batched run that falls back to per-root
        traversal (deep graph, or a verify observer) used to divide its
        per-root steady state by batch_size instead of num_sms."""
        kw = dict(roots=np.arange(40), n_samps=8, verify=verify)
        batched = dev.run_bc(small_road, strategy="batched", **kw)
        sampling = dev.run_bc(small_road, strategy="sampling", **kw)
        assert batched.sampling_chose_edge_parallel is False
        assert batched.roots_per_trace == 1
        assert batched.cycles == sampling.cycles
        assert (batched.extrapolated_seconds()
                == sampling.extrapolated_seconds())

    def test_batched_extrapolates_per_batch(self, dev, small_sw):
        run = dev.run_bc(small_sw, strategy="batched", roots=np.arange(40),
                         n_samps=8, batch_size=16)
        assert run.sampling_chose_edge_parallel is True
        assert run.roots_per_trace == 16
        steady = run.trace.roots[run.fixed_roots:]
        mean = np.mean([rt.cycles for rt in steady])
        expect = run.fixed_cycles + (150 - 8) * mean / 16
        assert run.extrapolated_seconds() == pytest.approx(
            GTX_TITAN.seconds(expect))

    def test_teps_positive(self, dev, fig1):
        run = dev.run_bc(fig1, strategy="work-efficient")
        assert run.teps() > 0
        assert run.mteps() == pytest.approx(run.teps() / 1e6)
        assert run.extrapolated_mteps() > 0


class TestDirectedGraphs:
    def test_strategies_exact_on_directed(self, dev):
        import networkx as nx

        from repro.graph.build import from_edges, to_networkx

        g = from_edges([(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)],
                       undirected=False)
        d = nx.betweenness_centrality(to_networkx(g), normalized=False)
        expect = np.array([d[i] for i in range(g.num_vertices)])
        for strategy in ("work-efficient", "edge-parallel", "hybrid",
                         "sampling"):
            run = dev.run_bc(g, strategy=strategy)
            assert np.allclose(run.bc, expect), strategy

    def test_directed_edge_count_semantics(self, dev):
        from repro.graph.build import from_edges

        g = from_edges([(0, 1), (1, 2)], undirected=False)
        run = dev.run_bc(g, strategy="work-efficient", roots=[0])
        assert run.num_edges == 2  # directed edges counted as-is
