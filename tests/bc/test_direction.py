"""The direction-optimizing sweep reproduces the top-down values.

:func:`repro.bc.frontier.sweep_group` scans a level bottom-up (every
unreached key looks for neighbours at the current depth) when that
inspects fewer edges than the frontier's adjacency.  On canonical CSR
a bottom-up level yields the top-down scan's ``(owner, succ)`` edges
stably reordered by successor, and every other :class:`ForwardGroup`
field and the backward stage's bytes match the one-root reference of
``test_lockstep``.  A spy on the bottom-up step records which depths
took it, checks that the graphs below do exercise it, and that it
never runs where it would be invalid.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc import frontier
from repro.bc.accumulation import accumulate_group
from repro.bc.frontier import sweep_group
from repro.bc.preprocess import fold_degree_one
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.generators.kronecker import kronecker_graph
from tests.bc.test_lockstep import (
    ref_dependency_accumulation,
    ref_forward_sweep,
)
from tests.gpusim.test_golden_digests import _overflow


@contextlib.contextmanager
def spy_bottom_up():
    """Record the depth of every level the sweep scans bottom-up."""
    calls = []
    real = frontier._bottom_up

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier, "_bottom_up", spy)
        yield calls


@pytest.fixture
def bottom_up_calls():
    """The depths of the sweep's bottom-up levels."""
    with spy_bottom_up() as calls:
        yield calls


def successor_major(owner, succ):
    """A top-down level's DAG edges in the order a bottom-up scan finds
    them: stably reordered by successor."""
    order = np.argsort(succ, kind="stable")
    return owner[order], succ[order]


def assert_sum_orders(owner, succ):
    """Each owner's successors, and each successor's owners, ascend in
    the order the level lists them: the per-bin summation orders of
    ``np.add.at`` (sigma) and ``bincount`` (delta)."""
    for key, val in ((owner, succ), (succ, owner)):
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        assert np.all((key[1:] != key[:-1]) | (val[1:] >= val[:-1]))


def expected_group(g, roots):
    """The group a top-down lockstep sweep gives, assembled from
    one-root reference sweeps: per depth, row ``r``'s keys follow the
    rows before it, and so do its DAG edges (owners shifted by the
    earlier rows' frontier sizes)."""
    n = g.num_vertices
    refs = [ref_forward_sweep(g, s) for s in roots]
    depths = max(len(ref[2]) for ref in refs)
    levels, dag = [], []
    scales = np.ones((len(roots), depths))
    for depth in range(depths):
        keys, owners, succs, before = [], [], [], 0
        for r, (_, _, lv, _, rdag) in enumerate(refs):
            if depth < len(lv):
                keys.append(lv[depth] + r * n)
                owner, succ = rdag[depth]
                owners.append(owner + before)
                succs.append(succ + r * n)
                before += lv[depth].size
        levels.append(np.concatenate(keys))
        dag.append((np.concatenate(owners), np.concatenate(succs)))
    for r, ref in enumerate(refs):
        scales[r, :ref[3].size] = ref[3]
    return refs, levels, dag, scales


def assert_matches_top_down(g, roots, width, target_weights=None):
    """Every field of each group's sweep, and its accumulation, equals
    the top-down reference byte for byte."""
    roots = np.asarray(roots, dtype=np.int64)
    for lo in range(0, roots.size, width):
        part = roots[lo:lo + width]
        with spy_bottom_up() as up:
            grp = sweep_group(g, part)
        refs, levels, dag, scales = expected_group(g, part.tolist())
        assert grp.sources.tobytes() == part.tobytes()
        assert grp.num_vertices == g.num_vertices
        d = np.concatenate([ref[0] for ref in refs])
        sigma = np.concatenate([ref[1] for ref in refs])
        assert grp.distances.tobytes() == d.tobytes()
        assert grp.sigma.tobytes() == sigma.tobytes()
        assert grp.level_scales.tobytes() == scales.tobytes()
        assert len(grp.levels) == len(levels)
        for got, want in zip(grp.levels, levels):
            assert got.tobytes() == want.tobytes()
        assert len(grp.dag) == len(dag)
        for depth, ((owner, succ), (want_owner, want_succ)) in enumerate(
                zip(grp.dag, dag)):
            if depth in up:
                want_owner, want_succ = successor_major(want_owner, want_succ)
            assert owner.dtype == succ.dtype == np.int64
            assert_sum_orders(owner, succ)
            assert owner.tobytes() == want_owner.tobytes()
            assert succ.tobytes() == want_succ.tobytes()
        delta = accumulate_group(grp, target_weights)
        for r, (_, rsigma, lv, rscales, rdag) in enumerate(refs):
            want = ref_dependency_accumulation(g, lv, rsigma, rscales, rdag,
                                               target_weights)
            assert delta[r].tobytes() == want.tobytes()


# -- graphs on which bottom-up levels win -----------------------------------
@st.composite
def dense_random(draw, max_n=24):
    n = draw(st.integers(4, max_n))
    p = draw(st.floats(0.5, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu = np.triu_indices(n, k=1)
    keep = rng.random(iu[0].size) < p
    return from_edges(np.column_stack([iu[0][keep], iu[1][keep]]),
                      num_vertices=n)


@st.composite
def wheel(draw):
    """A star whose leaves also form a ring: the hub's level reaches
    every vertex, so the leaves' level scans nothing bottom-up."""
    leaves = draw(st.integers(3, 30))
    spokes = [(0, i) for i in range(1, leaves + 1)]
    ring = [(i, i % leaves + 1) for i in range(1, leaves + 1)]
    return from_edges(spokes + ring)


@st.composite
def complete_bipartite(draw):
    a, b = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return from_edges([(i, a + j) for i in range(a) for j in range(b)])


@st.composite
def small_kron(draw):
    """Kronecker graphs: a hub core with many isolated vertices."""
    return kronecker_graph(draw(st.integers(4, 7)),
                           edge_factor=draw(st.integers(4, 16)),
                           seed=draw(st.integers(0, 1000)))


@st.composite
def disconnected(draw):
    """Two dense blocks and trailing isolated vertices."""
    a, b = draw(dense_random(max_n=12)), draw(dense_random(max_n=12))
    edges = np.concatenate([a.to_edge_list(),
                            b.to_edge_list() + a.num_vertices])
    isolated = draw(st.integers(0, 10))
    return from_edges(edges, undirected=True, already_symmetric=True,
                      num_vertices=a.num_vertices + b.num_vertices + isolated)


BOTTOM_UP = st.one_of(dense_random(), wheel(), complete_bipartite(),
                      small_kron(), disconnected())


def _roots_and_width(data, n):
    """Up to nine roots, duplicates allowed, and a group width."""
    roots = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=9))
    return roots, data.draw(st.integers(1, len(roots)))


@given(BOTTOM_UP, st.data())
@settings(max_examples=150, deadline=None)
def test_bottom_up_graphs_match_top_down(g, data):
    roots, width = _roots_and_width(data, g.num_vertices)
    assert_matches_top_down(g, roots, width)


@given(st.one_of(dense_random(), small_kron(), disconnected()), st.data())
@settings(max_examples=60, deadline=None)
def test_folded_cores_with_target_weights(g, data):
    pendants = data.draw(st.integers(0, 6))
    n = g.num_vertices
    tails = [(data.draw(st.integers(0, n + i - 1)), n + i)
             for i in range(pendants)]
    g = from_edges(np.concatenate([g.to_edge_list(),
                                   np.array(tails, dtype=np.int64)
                                   .reshape(-1, 2)]),
                   num_vertices=n + pendants)
    fold = fold_degree_one(g)
    core = fold.core
    assert core.canonical()
    if core.num_vertices == 0:
        return
    roots, width = _roots_and_width(data, core.num_vertices)
    assert_matches_top_down(core, roots, width,
                            target_weights=fold.core_weights)


def _gnp(n, p, seed, extra=0):
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    keep = rng.random(iu[0].size) < p
    return from_edges(np.column_stack([iu[0][keep], iu[1][keep]]),
                      num_vertices=n + extra)


def _wheel(leaves):
    return from_edges([(0, i) for i in range(1, leaves + 1)]
                      + [(i, i % leaves + 1) for i in range(1, leaves + 1)])


@pytest.mark.parametrize("make", [
    lambda: _gnp(20, 0.7, 1),
    lambda: _wheel(12),
    lambda: from_edges([(i, 5 + j) for i in range(5) for j in range(7)]),
    lambda: kronecker_graph(6, edge_factor=16, seed=2),
    lambda: _gnp(20, 0.7, 3, extra=6),
    lambda: fold_degree_one(kronecker_graph(7, edge_factor=8, seed=4)).core,
], ids=["dense", "wheel", "bipartite", "kron", "isolated", "kron-core"])
def test_spy_sees_bottom_up_levels(make, bottom_up_calls):
    g = make()
    assert_matches_top_down(g, [0, 1, 1, 2], 2)
    assert_matches_top_down(g, [1, 0], 1)
    assert bottom_up_calls


def _overflow_with_dense_tail():
    """The golden-digest overflow chain (sigma rescaled along it)
    ending in a 60-clique and then 6 vertices linked to every clique
    vertex: from one root, the clique's level is scanned bottom-up, and
    its successors sum 60 rescaled parents each."""
    g = _overflow()
    last = g.num_vertices - 8
    clique = np.arange(g.num_vertices, g.num_vertices + 60)
    sinks = np.arange(clique[-1] + 1, clique[-1] + 7)
    edges = [g.to_edge_list()]
    edges.append(np.array([(u, c) for u in range(last, last + 8)
                           for c in clique]))
    edges.append(np.array([(a, b) for a in clique for b in clique if a < b]))
    edges.append(np.array([(c, s) for c in clique for s in sinks]))
    return from_edges(np.concatenate(edges), undirected=True,
                      already_symmetric=False)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_overflow_graph_rescales_identically(width, bottom_up_calls):
    g = _overflow()
    roots = [0, 0, 9, 1500, 3040]
    assert_matches_top_down(g, roots, width)
    assert not bottom_up_calls  # thin layers: top-down is always cheaper
    tail = _overflow_with_dense_tail()
    assert_matches_top_down(tail, roots, width)
    if width == 1:
        assert bottom_up_calls
    grp = sweep_group(tail, [0])
    assert np.any(grp.level_scales > 1.0)


# -- inputs on which bottom-up must never run --------------------------------
def _dense_edges(n=16):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _unsorted_rows():
    g = from_edges(_dense_edges())
    adj = g.adj.copy()
    for v in range(g.num_vertices):
        lo, hi = g.indptr[v], g.indptr[v + 1]
        adj[lo:hi] = adj[lo:hi][::-1]
    return CSRGraph(g.indptr, adj)


def _asymmetric():
    g = from_edges(_dense_edges())
    adj = g.adj.copy()
    adj[0], adj[1] = adj[1], adj[1]  # 0 -> 1 dropped, 0 -> 2 doubled
    return CSRGraph(g.indptr, adj)


@pytest.mark.parametrize("make", [
    lambda: from_edges(_dense_edges(), undirected=False),
    _unsorted_rows,
    _asymmetric,
], ids=["directed", "unsorted-rows", "asymmetric"])
def test_bottom_up_never_runs_where_invalid(make, bottom_up_calls):
    g = make()
    assert not g.canonical()
    for roots in ([0], [0, 3, 3, 7]):
        sweep_group(g, roots)
    assert not bottom_up_calls
    # The same structure built canonically does take bottom-up levels.
    sweep_group(from_edges(_dense_edges()), [0])
    assert bottom_up_calls

