"""The group-wide check agrees with the per-root suite.

``RootChecker.rows_pass`` checks several rows of a lockstep group at
once and is only trusted where it says a row passes; every other row
gets ``check_root``.  So a row it passes must be one on which
``check_root`` records nothing, and replaying its counters must leave
the same metric series ``check_root`` would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc.accumulation import accumulate_group
from repro.bc.frontier import sweep_group
from repro.bc.preprocess import fold_degree_one
from repro.graph.build import from_edges
from repro.observability import MetricsRegistry
from repro.verify import RootChecker, VerificationPolicy

pytestmark = pytest.mark.sdc

SAMPLED = VerificationPolicy("sampled", root_period=1, sample_vertices=5)


def _counters(registry):
    return sorted((c["name"], sorted(c["labels"].items()), c["value"])
                  for c in registry.export()["counters"])


def assert_agrees(g, grp, delta, target_weights=None, source_weights=None):
    rows = list(range(grp.size))
    passed = RootChecker(SAMPLED).rows_pass(g, grp, delta, rows,
                                            target_weights, source_weights)
    for r in rows:
        per_root = MetricsRegistry()
        sw = (1.0 if source_weights is None
              else float(source_weights[grp.sources[r]]))
        violations = RootChecker(SAMPLED, per_root).check_root(
            g, grp.row(r), delta[r], target_weights=target_weights,
            source_weight=sw)
        if r in passed:
            assert violations == []
            replayed = MetricsRegistry()
            RootChecker(SAMPLED, replayed).count(passed[r])
            assert _counters(replayed) == _counters(per_root)
    return passed


@st.composite
def groups(draw, directed=False):
    n = draw(st.integers(2, 24))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=60))
    g = from_edges(edges, num_vertices=n, undirected=not directed)
    roots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    return g, sweep_group(g, roots)


@given(groups())
@settings(max_examples=80, deadline=None)
def test_clean_rows_all_pass(case):
    g, grp = case
    delta = accumulate_group(grp)
    passed = assert_agrees(g, grp, delta)
    assert sorted(passed) == list(range(grp.size))


@given(groups(), st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_rows(case, data):
    g, grp = case
    delta = accumulate_group(grp)
    n = g.num_vertices
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, grp.size - 1))
        v = data.draw(st.integers(0, n - 1))
        site = data.draw(st.sampled_from(["dist", "sigma", "delta"]))
        if site == "dist":
            grp.distances[r * n + v] = data.draw(st.integers(-3, n + 2))
        elif site == "sigma":
            grp.sigma[r * n + v] = data.draw(st.sampled_from(
                [0.0, -1.0, 2.0, 1e-3, np.inf, np.nan]))
        else:
            delta[r, v] = data.draw(st.sampled_from(
                [-1.0, 0.5, 1e6, np.nan]))
    assert_agrees(g, grp, delta)


@given(groups(directed=True), st.data())
@settings(max_examples=80, deadline=None)
def test_directed(case, data):
    g, grp = case
    delta = accumulate_group(grp)
    assert sorted(assert_agrees(g, grp, delta)) == list(range(grp.size))
    n = g.num_vertices
    r = data.draw(st.integers(0, grp.size - 1))
    v = data.draw(st.integers(0, n - 1))
    grp.distances[r * n + v] = data.draw(st.integers(-3, n + 2))
    assert_agrees(g, grp, delta)


@given(st.integers(3, 30), st.lists(st.tuples(st.integers(0, 29),
                                              st.integers(0, 29)),
                                    max_size=45), st.data())
@settings(max_examples=60, deadline=None)
def test_weighted_folded_core(n, edges, data):
    g = from_edges([(a % n, b % n) for a, b in edges], num_vertices=n)
    fold = fold_degree_one(g)
    core = fold.core
    if core.num_vertices == 0:
        return
    roots = data.draw(st.lists(st.integers(0, core.num_vertices - 1),
                               min_size=1, max_size=5))
    grp = sweep_group(core, roots)
    tw = fold.core_weights
    delta = accumulate_group(grp, tw) * tw[grp.sources][:, None]
    passed = assert_agrees(core, grp, delta, target_weights=tw,
                           source_weights=tw)
    assert sorted(passed) == list(range(grp.size))


def test_paranoid_batches_nothing(fig1):
    grp = sweep_group(fig1, [0, 1])
    checker = RootChecker(VerificationPolicy("paranoid"))
    assert checker.rows_pass(fig1, grp, accumulate_group(grp), [0, 1]) == {}
