"""Integration tests: every experiment runs at reduced scale and its
headline *shape* claims hold.

These are the end-to-end checks of the reproduction: the big scale runs
live in benchmarks/ and EXPERIMENTS.md; here we assert the qualitative
structure on small instances so the suite stays fast.
"""

from collections import Counter

import numpy as np
import pytest

from repro.bc import accumulation
from repro.harness.experiments import (
    EXPERIMENTS,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    table1,
    table2,
    table3,
    table4,
)
from repro.gpusim.device import Device
from repro.harness.runner import ExperimentConfig, pick_roots

CFG = ExperimentConfig(scale_factor=128, root_sample=6, seed=0)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "figure1", "figure3", "figure4", "figure5", "figure6",
            "table1", "table2", "table3", "table4",
        }

    def test_each_module_has_run_and_render(self):
        for mod in EXPERIMENTS.values():
            assert callable(mod.run) and callable(mod.render)


class TestFigure1:
    def test_scores_match_text_claims(self):
        r = figure1.run()
        assert r.argmax_paper_label == 4
        assert r.bc[7] == pytest.approx(0.0)  # paper vertex 8
        assert r.bc[8] == pytest.approx(0.0)  # paper vertex 9

    def test_figure2_work_counts(self):
        r = figure1.run()
        # vertex-parallel: n threads; edge-parallel: 2m; WE: |frontier|.
        assert r.threads_vertex_parallel == 9
        assert r.threads_edge_parallel == 22
        assert r.threads_work_efficient == 4
        assert sorted(r.frontier_iteration2.tolist()) == [1, 3, 5, 6]

    def test_render(self):
        out = figure1.render()
        assert "Figure 1" in out and "Figure 2" in out


class TestTable1:
    def test_vertex_correlation_positive_everywhere(self):
        r = table1.run(CFG, roots_per_graph=2)
        assert len(r.rows) == 10  # 2 roots x 5 graphs
        # The paper's headline: rho_v,t positive regardless of structure.
        assert r.min_vertex_corr() > 0.0

    def test_uniform_graphs_both_high(self):
        # At 1/128 scale the tiny frontiers quantise the per-level cost,
        # weakening correlations relative to the full-scale runs
        # (benchmarks/test_table1.py checks the strong version at /8);
        # the qualitative claim still holds clearly.
        r = table1.run(CFG, roots_per_graph=2)
        for name in ("delaunay_n20", "smallworld"):
            for row in r.by_graph(name):
                assert row.rho_vertex_time > 0.6
                assert row.rho_edge_time > 0.6
        for row in r.by_graph("rgg_n_2_20"):
            assert row.rho_vertex_time > 0.4

    def test_render(self):
        out = table1.render(table1.run(CFG, roots_per_graph=2))
        assert "rho_v,t" in out


class TestTable2:
    def test_all_rows(self):
        r = table2.run(CFG)
        assert len(r.rows) == 10

    def test_structural_shape(self):
        r = table2.run(CFG)
        # Road network: barely more edges than vertices, deep.
        lux = r.stats("luxembourg.osm")
        assert lux.num_edges < 1.3 * lux.num_vertices
        # Kron: hubs and isolated vertices.
        kron = r.stats("kron_g500-logn20")
        assert kron.max_degree > 50
        # Diameter split between classes.
        assert lux.diameter > 5 * kron.diameter

    def test_render(self):
        assert "af_shell9" in table2.render(table2.run(CFG))


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run(ExperimentConfig(scale_factor=64, root_sample=6))

    def test_high_diameter_graphs_win_big(self, result):
        # The paper's af_shell/delaunay/luxembourg rows: sampling wins
        # clearly on high-diameter graphs.
        assert result.row("af_shell9").speedup > 2.0
        assert result.row("delaunay_n20").speedup > 2.0

    def test_scale_free_graphs_near_parity(self, result):
        for name in ("caidaRouterLevel", "loc-gowalla", "smallworld"):
            assert 0.5 < result.row(name).speedup < 3.0

    def test_geomean_beats_baseline(self, result):
        assert result.geomean_speedup > 1.2

    def test_render(self, result):
        out = table3.render(result)
        assert "Geometric mean" in out


class TestFigure3:
    def test_shape_split(self):
        r = figure3.run(CFG, roots_per_graph=2)
        from repro.metrics.frontier import classify_frontier_shape

        for evo in r.by_graph("kron_g500-logn20") + r.by_graph("smallworld"):
            assert classify_frontier_shape(evo) == "ballooning"
        for evo in r.by_graph("rgg_n_2_20") + r.by_graph("luxembourg.osm"):
            assert classify_frontier_shape(evo) == "gradual"

    def test_iteration_counts_reflect_diameter(self):
        r = figure3.run(CFG, roots_per_graph=2)
        deep = min(e.num_levels for e in r.by_graph("luxembourg.osm"))
        shallow = max(e.num_levels for e in r.by_graph("smallworld"))
        assert deep > shallow

    def test_render(self):
        assert "Figure 3" in figure3.render(figure3.run(CFG, roots_per_graph=1))


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return figure4.run(ExperimentConfig(scale_factor=64, root_sample=6))

    def test_work_efficient_wins_meshes(self, result):
        assert result.row("af_shell9").speedup("work-efficient") > 2.0
        assert result.row("delaunay_n20").speedup("work-efficient") > 2.0

    def test_work_efficient_loses_scale_free(self, result):
        # "using the work-efficient method alone performs slower than
        # the edge-parallel method" on these graphs.
        assert result.row("loc-gowalla").speedup("work-efficient") < 0.8
        assert result.row("caidaRouterLevel").speedup("work-efficient") < 0.8

    def test_adaptive_methods_never_catastrophic(self, result):
        for row in result.rows:
            assert row.speedup("hybrid") > 0.4
            assert row.speedup("sampling") > 0.4

    def test_render(self, result):
        assert "Hybrid" in figure4.render(result)


class TestFigure5:
    CFG = ExperimentConfig(scale_factor=1, root_sample=4)

    @pytest.fixture(scope="class")
    def swept(self):
        """The Figure 5 run, with the roots each graph's sweeps ran."""
        swept = Counter()
        real = accumulation.sweep_group

        def spy(g, sources, metrics=None):
            swept[g.name] += len(sources)
            return real(g, sources, metrics=metrics)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(accumulation, "sweep_group", spy)
            result = figure5.run(self.CFG, scales=range(8, 11))
        return result, swept

    @pytest.fixture(scope="class")
    def result(self, swept):
        return swept[0]

    def test_each_root_swept_once_per_graph(self, swept):
        result, roots = swept
        assert len(roots) == len(result.points)
        assert set(roots.values()) == {self.CFG.root_sample}

    def _points(self, result, isolated):
        """The points, with their graphs, whose graphs have (or have no)
        isolated vertices."""
        picked = []
        for p in result.points:
            g = figure5.FAMILIES[p.family](p.scale, self.CFG.seed)
            if (g.isolated_vertices().size > 0) == isolated:
                picked.append((p, g))
        assert picked
        return picked

    def test_reader_rejects_graphs_with_isolated_vertices(self, result):
        for p, _ in self._points(result, isolated=True):
            assert p.edge_parallel_seconds == figure5.READER_REJECTS

    def test_reader_times_graphs_without_isolated_vertices(self, result):
        for p, g in self._points(result, isolated=False):
            # Timed as a run of its own would time it.
            alone = Device(self.CFG.gpu).run_bc(
                g, strategy="edge-parallel", fold=False,
                roots=pick_roots(g, self.CFG.root_sample, self.CFG.seed))
            assert p.edge_parallel_seconds == alone.extrapolated_seconds()

    def test_sampling_beats_gpu_fan(self, result):
        for p in result.points:
            if isinstance(p.gpu_fan_seconds, float):
                assert p.sampling_seconds < p.gpu_fan_seconds

    def test_kron_reader_rejected(self, result):
        for p in result.family("kron"):
            assert p.edge_parallel_seconds == figure5.READER_REJECTS

    def test_time_grows_with_scale(self, result):
        for fam in ("rgg", "delaunay", "kron"):
            pts = result.family(fam)
            times = [p.sampling_seconds for p in pts]
            assert times == sorted(times)

    def test_gpu_fan_oom_at_large_scale(self):
        """At scale 17 the O(n^2) predecessor matrix exceeds 6 GB."""
        from repro.bc.gpu_fan import supports_graph
        from repro.graph.generators import rgg_n_2
        from repro.gpusim.spec import GTX_TITAN

        g17 = rgg_n_2(17, seed=0)
        assert not supports_graph(g17, GTX_TITAN.memory_bytes)
        g15 = rgg_n_2(15, seed=0)
        assert supports_graph(g15, GTX_TITAN.memory_bytes)

    def test_render(self, result):
        assert "GPU-FAN" in figure5.render(result)


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return figure6.run(ExperimentConfig(scale_factor=1, root_sample=8),
                           scales=(11, 14), node_counts=(1, 4, 16))

    def test_speedups_grow_with_scale(self, result):
        for fam in ("delaunay", "rgg", "kron"):
            small = result.curve(fam, 11).speedups()[-1]
            large = result.curve(fam, 14).speedups()[-1]
            assert large >= small

    def test_speedup_bounded_by_nodes(self, result):
        for c in result.curves:
            for nodes, sp in zip(c.node_counts, c.speedups()):
                assert sp <= nodes + 1e-9

    def test_render(self, result):
        assert "GPUs" in figure6.render(result)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4.run(ExperimentConfig(scale_factor=1, root_sample=8),
                          scale=13)

    def test_kron_teps_highest(self, result):
        # Table IV: the Kronecker graph posts the best TEPS rate.
        assert result.row("kron").gteps_64 > result.row("delaunay").gteps_64
        assert result.row("kron").gteps_64 > result.row("rgg").gteps_64

    def test_kron_adjustment_for_isolated(self, result):
        kron = result.row("kron")
        assert kron.isolated_vertices > 0
        assert kron.adjusted_gteps_64 < kron.gteps_64
        rgg = result.row("rgg")
        assert rgg.adjusted_gteps_64 == pytest.approx(rgg.gteps_64)

    def test_render(self, result):
        assert "Adjusted" in table4.render(result)
