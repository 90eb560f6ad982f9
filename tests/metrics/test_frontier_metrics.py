"""Unit tests for frontier-evolution metrics (Figure 3 helpers)."""

import pytest

from repro.metrics.frontier import classify_frontier_shape, frontier_evolution


class TestFrontierEvolution:
    def test_path(self, path5):
        evo = frontier_evolution(path5, 0)
        assert evo.sizes.tolist() == [1, 1, 1, 1, 1]
        assert evo.peak_percentage == pytest.approx(20.0)
        assert evo.num_levels == 5

    def test_star_balloons(self, star):
        evo = frontier_evolution(star, 0)
        assert evo.peak_percentage == pytest.approx(6 / 7 * 100)

    def test_percentages_sum_to_reached(self, small_sw):
        evo = frontier_evolution(small_sw, 3)
        reached_pct = evo.percentages.sum()
        assert reached_pct <= 100.0 + 1e-9

    def test_graph_name_carried(self, small_sw):
        assert frontier_evolution(small_sw, 0).graph == small_sw.name


class TestClassification:
    def test_ballooning_smallworld(self, small_sw):
        evo = frontier_evolution(small_sw, 0)
        assert classify_frontier_shape(evo) == "ballooning"

    def test_gradual_road(self, small_road):
        evo = frontier_evolution(small_road, 0)
        assert classify_frontier_shape(evo) == "gradual"

    def test_threshold_knob(self, path5):
        evo = frontier_evolution(path5, 0)
        assert classify_frontier_shape(evo, large_threshold_pct=50.0) == "gradual"
        assert classify_frontier_shape(evo, large_threshold_pct=10.0) == "ballooning"
