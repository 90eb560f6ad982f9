"""A lockstep group's values equal one-root sweeps, byte for byte.

:func:`repro.bc.frontier.sweep_group` advances a group of roots one
level per step over ``row * n + vertex`` keys, and
:func:`repro.bc.accumulation.accumulate_group` runs their backward
stages together.  Every row must be exactly what a one-root sweep and
accumulation give.  The reference below is a verbatim copy of the
one-root forward sweep, dependency accumulation and frontier profile as
they were before groups existed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import concat_ranges, sorted_unique
from repro.bc import engine
from repro.bc.accumulation import accumulate_group, root_dependencies
from repro.bc.frontier import (
    SIGMA_RESCALE_LIMIT,
    forward_sweep,
    group_width,
    sweep_group,
)
from repro.bc.policies import FixedPolicy, HybridPolicy
from repro.bc.preprocess import fold_degree_one
from repro.graph.build import from_edges
from repro.gpusim.charge import FrontierProfile
from repro.gpusim.cost import DEFAULT_COSTS

UNREACHED = -1


# -- reference: the one-root code, copied ---------------------------------
def ref_forward_sweep(g, source):
    n = g.num_vertices
    source = int(source)
    indptr, adj = g.indptr, g.adj
    degree = indptr[1:] - indptr[:-1]
    d = np.full(n, UNREACHED, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    d[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    levels = [frontier]
    scales = [1.0]
    dag = []
    depth = 0
    while True:
        starts = indptr[frontier]
        counts = degree[frontier]
        nbrs = adj[concat_ranges(starts, counts)]
        hit = d[nbrs] == UNREACHED
        succ = nbrs[hit]
        owner = np.arange(frontier.size).repeat(counts)[hit]
        dag.append((owner, succ))
        q_next = sorted_unique(succ)
        if q_next.size == 0:
            break
        d[q_next] = depth + 1
        np.add.at(sigma, succ, sigma[frontier][owner])
        mx = float(sigma[q_next].max())
        if mx > SIGMA_RESCALE_LIMIT:
            sigma[q_next] /= mx
            scales.append(mx)
        else:
            scales.append(1.0)
        frontier = q_next
        depth += 1
        levels.append(frontier)
    return d, sigma, levels, np.asarray(scales, dtype=np.float64), dag


def ref_accumulate_level(level, owner, succ, sigma, delta,
                         sigma_ratio_scale=1.0, target_weights=None):
    if succ.size == 0:
        return
    endpoint = 1.0 if target_weights is None else target_weights[succ]
    contrib = (endpoint + delta[succ]) / sigma[succ]
    acc = np.bincount(owner, contrib, minlength=level.size)
    delta[level] = sigma[level] * acc * sigma_ratio_scale


def ref_dependency_accumulation(g, levels, sigma, scales, dag,
                                target_weights=None):
    delta = np.zeros(g.num_vertices, dtype=np.float64)
    for depth in range(len(levels) - 2, 0, -1):
        owner, succ = dag[depth]
        ref_accumulate_level(levels[depth], owner, succ, sigma, delta,
                             sigma_ratio_scale=1.0 / scales[depth + 1],
                             target_weights=target_weights)
    return delta


def ref_profile(g, levels):
    ids = np.concatenate(levels)
    degrees = g.indptr[ids + 1] - g.indptr[ids]
    sizes = [lv.size for lv in levels]
    starts = np.cumsum(sizes) - sizes
    return sizes, np.add.reduceat(degrees, starts).tolist(), ids, degrees


# -- the property ------------------------------------------------------------
def assert_group_matches(g, roots, width, target_weights=None):
    roots = np.asarray(roots, dtype=np.int64)
    for lo in range(0, roots.size, width):
        grp = sweep_group(g, roots[lo:lo + width])
        delta = accumulate_group(grp, target_weights)
        profiles = FrontierProfile.of_group(g, grp)
        assert delta.shape == (grp.size, g.num_vertices)
        for r, s in enumerate(roots[lo:lo + width].tolist()):
            d, sigma, levels, scales, dag = ref_forward_sweep(g, s)
            row = grp.row(r)
            assert row.source == s
            assert row.distances.tobytes() == d.tobytes()
            assert row.sigma.tobytes() == sigma.tobytes()
            assert row.level_scales.tobytes() == scales.tobytes()
            sizes, edges, ids, degrees = ref_profile(g, levels)
            p = profiles[r]
            assert p.root == s
            assert p.sizes == sizes and p.edges == edges
            assert p.ids.tobytes() == ids.tobytes()
            assert p.degrees.tobytes() == degrees.tobytes()
            want = ref_dependency_accumulation(g, levels, sigma, scales, dag,
                                               target_weights)
            assert delta[r].tobytes() == want.tobytes()


@st.composite
def graphs(draw, directed=False, max_n=24, max_m=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=max_m))
    return from_edges(edges, num_vertices=n, undirected=not directed)


def _roots_and_width(data, n):
    roots = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=9))
    width = data.draw(st.integers(1, len(roots)))
    return roots, width


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_undirected_disconnected_and_duplicate_roots(g, data):
    roots, width = _roots_and_width(data, g.num_vertices)
    assert_group_matches(g, roots, width)


@given(graphs(directed=True), st.data())
@settings(max_examples=80, deadline=None)
def test_directed(g, data):
    roots, width = _roots_and_width(data, g.num_vertices)
    assert_group_matches(g, roots, width)


@given(graphs(max_n=30, max_m=45), st.data())
@settings(max_examples=60, deadline=None)
def test_folded_core_with_target_weights(g, data):
    fold = fold_degree_one(g)
    core = fold.core
    if core.num_vertices == 0:
        return
    roots, width = _roots_and_width(data, core.num_vertices)
    assert_group_matches(core, roots, width, target_weights=fold.core_weights)


def _layered():
    """Two chains of complete bipartite blocks, sigma growing 4-fold
    and 8-fold per block, plus a triangle whose roots never rescale.
    Returns the graph and one root in each part."""
    edges, roots, nxt = [], [], 0
    for segments, width in ((200, 4), (150, 8)):
        prev = [nxt]
        roots.append(nxt)
        nxt += 1
        for _ in range(segments):
            layer = list(range(nxt, nxt + width))
            nxt += width
            edges.extend((p, q) for p in prev for q in layer)
            prev = layer
    edges += [(nxt, nxt + 1), (nxt + 1, nxt + 2), (nxt, nxt + 2)]
    return from_edges(edges), roots + [nxt]


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_rows_rescale_at_different_depths(width):
    g, (slow, fast, flat) = _layered()
    roots = [slow, fast, flat, slow + 7, slow]
    grp = sweep_group(g, roots)
    first = [int(np.argmax(grp.level_scales[r] > 1.0)) for r in (0, 1)]
    assert min(first) > 0 and first[0] != first[1]
    assert not np.any(grp.level_scales[2] > 1.0)
    assert_group_matches(g, roots, width)


def test_one_root_group_is_forward_sweep(fig1):
    fwd = forward_sweep(fig1, 3)
    grp = sweep_group(fig1, [3])
    assert fwd.distances.tobytes() == grp.distances.tobytes()
    assert fwd.sigma.tobytes() == grp.sigma.tobytes()
    assert fwd.level_scales.tobytes() == grp.level_scales[0].tobytes()
    assert [lv.tolist() for lv in fwd.levels] == [lv.tolist()
                                                 for lv in grp.levels]


def test_root_dependencies_in_root_order(fig1):
    roots = [4, 0, 4, 8]
    got = list(root_dependencies(fig1, roots))
    for s, delta in zip(roots, got):
        d, sigma, levels, scales, dag = ref_forward_sweep(fig1, s)
        want = ref_dependency_accumulation(fig1, levels, sigma, scales, dag)
        assert delta.tobytes() == want.tobytes()


def test_sources_validated(fig1):
    with pytest.raises(IndexError, match="out of range"):
        sweep_group(fig1, [0, fig1.num_vertices])
    with pytest.raises(ValueError):
        sweep_group(fig1, [])


def test_group_width_rule(monkeypatch):
    from repro.bc import frontier

    # Hub 0 has leaves 1-5; leaf 1 also reaches 6 and 7, so the edges
    # two hops from the hub are 3 + 1 + 1 + 1 + 1 = 7.
    g = from_edges([(0, v) for v in range(1, 6)] + [(1, 6), (1, 7)])
    n, m = g.num_vertices, g.num_directed_edges
    assert group_width(g) == min(frontier.GROUP_KEYS // n,
                                 frontier.GROUP_CELLS // (n + m),
                                 frontier.GROUP_LEVEL_EDGES // 7)
    for budget, per_root in (("GROUP_KEYS", n), ("GROUP_CELLS", n + m),
                             ("GROUP_LEVEL_EDGES", 7)):
        with monkeypatch.context() as patch:
            patch.setattr(frontier, budget, 3 * per_root + 1)
            assert group_width(g) == 3
            patch.setattr(frontier, budget, per_root - 1)
            assert group_width(g) == 1
    big = from_edges([(i, i + 1) for i in range(frontier.GROUP_KEYS)])
    assert group_width(big) == 1
    assert group_width(from_edges([], num_vertices=3)) == (
        frontier.GROUP_KEYS // 3)


@pytest.mark.parametrize("policy", [FixedPolicy("work-efficient"),
                                    HybridPolicy(alpha=2, beta=10)])
def test_run_roots_width_does_not_change_traces_or_bc(small_sw, policy):
    roots = [0, 5, 5, 17, 3, 29, 11]
    results = []
    for width in (1, 3, 7):
        bc = np.zeros(small_sw.num_vertices)
        traces = engine.run_roots(small_sw, roots, bc, policy,
                                  DEFAULT_COSTS, 32, width=width)
        results.append((bc.tobytes(), repr(traces)))
    assert results[0] == results[1] == results[2]
