"""Accumulation over the forward sweep's DAG equals successor re-checking.

The backward stage of Algorithm 3 finds each vertex's successors by
re-reading its adjacency list and keeping neighbours one level deeper.
The executor instead reuses the ``(owner, succ)`` edges the forward
sweep recorded.  These tests pin the two together byte for byte: the
reference below is the re-gathering accumulation, copied verbatim.  A
level the sweep scanned bottom-up lists its edges stably reordered by
successor (see ``test_direction``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc.accumulation import dependency_accumulation
from repro.bc.frontier import SIGMA_RESCALE_LIMIT, forward_sweep
from repro.bc.preprocess import fold_degree_one
from repro.graph.build import from_edges
from tests.bc.test_direction import (
    assert_sum_orders,
    spy_bottom_up,
    successor_major,
)


def _regather_level(g, level, distances, sigma, delta, sigma_ratio_scale,
                    target_weights):
    if level.size == 0:
        return
    indptr, adj = g.indptr, g.adj
    starts = indptr[level]
    counts = indptr[level + 1] - starts
    nbrs = adj[np.concatenate([np.arange(s, s + c)
                               for s, c in zip(starts, counts)]
                              or [np.empty(0, dtype=np.int64)])]
    owner = np.repeat(np.arange(level.size, dtype=np.int64), counts)
    depth_here = distances[level[0]]
    succ = distances[nbrs] == depth_here + 1
    if not np.any(succ):
        return
    nbrs = nbrs[succ]
    owner = owner[succ]
    endpoint = 1.0 if target_weights is None else target_weights[nbrs]
    contrib = (endpoint + delta[nbrs]) / sigma[nbrs]
    acc = np.zeros(level.size, dtype=np.float64)
    np.add.at(acc, owner, contrib)
    delta[level] = sigma[level] * acc * sigma_ratio_scale


def regather_accumulation(g, fwd, target_weights=None):
    delta = np.zeros(g.num_vertices, dtype=np.float64)
    scales = fwd.level_scales
    for depth in range(len(fwd.levels) - 2, 0, -1):
        ratio_scale = 1.0
        if scales is not None and depth + 1 < scales.size:
            ratio_scale = 1.0 / scales[depth + 1]
        _regather_level(g, fwd.levels[depth], fwd.distances, fwd.sigma,
                        delta, ratio_scale, target_weights)
    return delta


def successor_checked_edges(g, fwd, depth):
    """``(owner, succ)`` of one level the way Algorithm 3 finds them."""
    level = fwd.levels[depth]
    owner, succ = [], []
    for pos, v in enumerate(level.tolist()):
        for w in g.adj[g.indptr[v]:g.indptr[v + 1]].tolist():
            if fwd.distances[w] == depth + 1:
                owner.append(pos)
                succ.append(w)
    return owner, succ


def assert_same(g, root, target_weights=None):
    with spy_bottom_up() as up:
        fwd = forward_sweep(g, root)
    assert len(fwd.dag) == len(fwd.levels)
    for depth in range(len(fwd.levels)):
        owner, succ = fwd.dag[depth]
        want_owner, want_succ = (np.array(edges, dtype=np.int64) for edges
                                 in successor_checked_edges(g, fwd, depth))
        if depth in up:
            want_owner, want_succ = successor_major(want_owner, want_succ)
        assert_sum_orders(owner, succ)
        assert owner.dtype == succ.dtype == np.int64
        assert owner.tobytes() == want_owner.tobytes()
        assert succ.tobytes() == want_succ.tobytes()
    got = dependency_accumulation(g, fwd, target_weights=target_weights)
    want = regather_accumulation(g, fwd, target_weights=target_weights)
    assert got.tobytes() == want.tobytes()


@st.composite
def graphs(draw, directed=False, max_n=24, max_m=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=max_m))
    return from_edges(edges, num_vertices=n, undirected=not directed)


@given(graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_undirected_and_disconnected(g, data):
    root = data.draw(st.integers(0, g.num_vertices - 1))
    assert_same(g, root)


@given(graphs(directed=True), st.data())
@settings(max_examples=80, deadline=None)
def test_directed(g, data):
    root = data.draw(st.integers(0, g.num_vertices - 1))
    assert_same(g, root)


@given(graphs(max_n=30, max_m=45), st.data())
@settings(max_examples=60, deadline=None)
def test_folded_core_with_target_weights(g, data):
    fold = fold_degree_one(g)
    core = fold.core
    if core.num_vertices == 0:
        return
    root = data.draw(st.integers(0, core.num_vertices - 1))
    assert_same(core, root, target_weights=fold.core_weights)


def _layered(segments, width):
    """Chain of complete bipartite blocks: sigma grows ``width``-fold
    per block."""
    edges, prev, nxt = [], [0], 1
    for _ in range(segments):
        layer = list(range(nxt, nxt + width))
        nxt += width
        edges.extend((p, q) for p in prev for q in layer)
        prev = layer
    return from_edges(edges)


def test_deep_layered_graph_trips_rescaling():
    g = _layered(200, 4)
    fwd = forward_sweep(g, 0)
    assert np.any(fwd.level_scales > 1.0)
    assert fwd.sigma.max() <= SIGMA_RESCALE_LIMIT
    assert_same(g, 0)
    assert_same(g, 5)
