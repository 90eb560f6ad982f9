"""Unit tests for the per-root ABFT invariant checkers.

Two directions: clean Brandes state passes every invariant on every
graph class (including directed and disconnected ones), and each
invariant fires on the targeted corruption it exists to catch.
"""

import numpy as np
import pytest

from repro.bc.accumulation import dependency_accumulation
from repro.bc.frontier import forward_sweep
from repro.graph.build import from_edges
from repro.graph.generators import figure1_graph, watts_strogatz
from repro.observability import MetricsRegistry
from repro.verify import (
    RootChecker,
    VerificationPolicy,
    expected_delta_checksum,
)

pytestmark = pytest.mark.sdc

GRAPHS = {
    "fig1": figure1_graph,
    "path5": lambda: from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]),
    "star7": lambda: from_edges([(0, i) for i in range(1, 7)]),
    "two_components": lambda: from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], num_vertices=7),
    "single_vertex": lambda: from_edges([], num_vertices=1),
    "directed_dag": lambda: from_edges(
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)], undirected=False),
    "smallworld": lambda: watts_strogatz(48, k=4, p=0.1, seed=3),
}


def _root_state(g, root):
    fwd = forward_sweep(g, root)
    return fwd, dependency_accumulation(g, fwd)


@pytest.mark.parametrize("mode", ["sampled", "paranoid"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_clean_state_passes(name, mode):
    g = GRAPHS[name]()
    checker = RootChecker(VerificationPolicy(mode))
    for root in range(g.num_vertices):
        fwd, delta = _root_state(g, root)
        assert checker.check_root(g, fwd, delta) == [], (name, root)


def test_checksum_identity_matches_delta_sum():
    for name in sorted(GRAPHS):
        g = GRAPHS[name]()
        for root in range(g.num_vertices):
            fwd, delta = _root_state(g, root)
            assert np.isclose(float(delta.sum()),
                              expected_delta_checksum(fwd.distances)), \
                (name, root)


class TestDetection:
    """Each invariant fires on the corruption it exists to catch."""

    def _checker(self, mode="paranoid"):
        return RootChecker(VerificationPolicy(mode))

    def test_delta_scale_trips_checksum(self, fig1):
        fwd, delta = _root_state(fig1, 0)
        delta[4] *= 2.0
        invs = [v.invariant for v in self._checker().check_root(fig1, fwd, delta)]
        assert "checksum" in invs

    def test_negative_delta_trips_range(self, fig1):
        fwd, delta = _root_state(fig1, 0)
        delta[4] = -1.0
        invs = [v.invariant for v in self._checker().check_root(fig1, fwd, delta)]
        assert "range" in invs

    def test_nonfinite_sigma_trips_range(self, fig1):
        fwd, delta = _root_state(fig1, 0)
        fwd.sigma[3] = np.inf
        invs = [v.invariant for v in self._checker().check_root(fig1, fwd, delta)]
        assert "range" in invs

    def test_sigma_count_trips_multiplicativity(self, fig1):
        fwd, delta = _root_state(fig1, 0)
        victim = int(np.flatnonzero(fwd.distances >= 1)[0])
        fwd.sigma[victim] *= 3.0
        invs = [v.invariant for v in self._checker().check_root(fig1, fwd, delta)]
        assert "sigma" in invs or "checksum" in invs

    def test_depth_jump_trips_level(self, fig1):
        fwd, delta = _root_state(fig1, 0)
        victim = int(np.flatnonzero(fwd.distances >= 1)[0])
        fwd.distances[victim] = fwd.distances.max() + 4
        found = self._checker().check_root(fig1, fwd, delta)
        assert found, "corrupted depth must trip at least one invariant"

    def test_out_of_range_distance_trips_range(self, fig1):
        fwd, delta = _root_state(fig1, 0)
        fwd.distances[2] = fig1.num_vertices + 10
        invs = [v.invariant for v in self._checker().check_root(fig1, fwd, delta)]
        assert "range" in invs

    def test_violation_carries_context(self, fig1):
        fwd, delta = _root_state(fig1, 3)
        delta[4] *= 2.0
        (v,) = [x for x in self._checker().check_root(fig1, fwd, delta)
                if x.invariant == "checksum"]
        assert v.root == 3
        assert "sum(delta)" in v.detail
        assert "checksum" in str(v)


class TestUnitAndReduceChecks:
    def test_partial_clean(self):
        checker = RootChecker(VerificationPolicy("paranoid"))
        partial = np.array([1.0, 2.0, 3.0])
        assert checker.check_partial(partial, 6.0, rank=1) == []

    def test_partial_mismatch(self):
        checker = RootChecker(VerificationPolicy("paranoid"))
        partial = np.array([1.0, 2.0, 3.0])
        (v,) = checker.check_partial(partial, 42.0, rank=1)
        assert v.invariant == "partial"
        assert v.root == 1

    def test_partial_nonfinite(self):
        checker = RootChecker(VerificationPolicy("paranoid"))
        partial = np.array([1.0, np.nan])
        (v,) = checker.check_partial(partial, 1.0)
        assert v.invariant == "partial"

    def test_reduce_ok(self):
        checker = RootChecker(VerificationPolicy("paranoid"))
        total = np.array([2.0, 4.0])
        assert checker.reduce_ok(total, 6.0)
        assert not checker.reduce_ok(total, 60.0)
        assert not checker.reduce_ok(np.array([np.inf, 0.0]), 6.0)


def test_metrics_counters_flow(fig1):
    metrics = MetricsRegistry()
    checker = RootChecker(VerificationPolicy("paranoid"), metrics)
    fwd, delta = _root_state(fig1, 0)
    checker.check_root(fig1, fwd, delta)
    delta[4] *= 2.0
    checker.check_root(fig1, fwd, delta)
    counters = metrics.export()["counters"]
    checks = [c for c in counters if c["name"] == "verify.checks"]
    violations = [c for c in counters if c["name"] == "verify.violations"]
    assert checks and violations


@pytest.mark.parametrize("population", [1, 7, 64, 65, 900, 12000])
def test_cached_sample_positions_are_the_seeded_draw(population):
    """The sampled suite's vertex sample is the draw a generator seeded
    with ``[seed, root]`` makes from the reached vertices; the cached
    positions reproduce it for any array of that size."""
    from repro.verify.invariants import _sample_positions

    reached = np.arange(population) * 3 + 1
    size = min(64, population)
    for seed, root in ((0, 0), (0, 17), (5, 17), (2, 11999)):
        want = np.random.default_rng([seed, root]).choice(
            reached, size=size, replace=False)
        got = reached[_sample_positions(seed, root, population, size)]
        assert got.tobytes() == want.tobytes()
        again = _sample_positions(seed, root, population, size)
        assert not again.flags.writeable
