"""Property-based tests for the BC algorithms and their invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc.api import betweenness_centrality
from repro.bc.brandes import brandes_reference
from repro.bc.edge_parallel import bc_edge_parallel
from repro.bc.frontier import forward_sweep
from repro.bc.vertex_parallel import bc_vertex_parallel
from repro.bc.work_efficient import bc_work_efficient
from repro.graph.build import from_edges, relabel


@st.composite
def graphs(draw, max_n=16, max_m=40):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m, max_size=m,
        )
    )
    return from_edges(edges, num_vertices=n)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_engine_matches_serial_reference(g):
    assert np.allclose(betweenness_centrality(g), brandes_reference(g),
                       rtol=1e-9, atol=1e-9)


@given(graphs(max_n=12, max_m=24))
@settings(max_examples=25, deadline=None)
def test_all_kernels_agree(g):
    ref = brandes_reference(g)
    for fn in (bc_work_efficient, bc_edge_parallel, bc_vertex_parallel):
        assert np.allclose(fn(g), ref, rtol=1e-9, atol=1e-9)


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_bc_nonnegative_and_bounded(g):
    bc = betweenness_centrality(g)
    n = g.num_vertices
    assert np.all(bc >= -1e-9)
    # Maximum possible: (n-1)(n-2)/2 pairs for undirected.
    assert np.all(bc <= (n - 1) * (n - 2) / 2 + 1e-9)


@given(graphs())
@settings(max_examples=30, deadline=None)
def test_bc_total_mass_identity(g):
    """Sum over v of BC(v) equals the total interior length of all
    shortest paths: sum over pairs (dist - 1) for connected pairs."""
    bc = betweenness_centrality(g)
    total = 0.0
    for s in range(g.num_vertices):
        d = forward_sweep(g, s).distances
        reach = d[d > 0]
        total += float((reach - 1).sum())
    assert bc.sum() * 2.0 == np.float64(total).item() or np.isclose(
        bc.sum(), total / 2.0, rtol=1e-9, atol=1e-9
    )


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_bc_equivariant_under_relabeling(g, rnd):
    n = g.num_vertices
    perm = list(range(n))
    rnd.shuffle(perm)
    perm_arr = np.asarray(perm)
    bc = betweenness_centrality(g)
    bc2 = betweenness_centrality(relabel(g, perm_arr))
    # bc2[perm[v]] == bc[v].
    assert np.allclose(bc2[perm_arr], bc, rtol=1e-9, atol=1e-9)


@given(graphs())
@settings(max_examples=25, deadline=None)
def test_leaf_vertices_score_zero(g):
    bc = betweenness_centrality(g)
    for v in np.flatnonzero(g.degrees <= 1):
        assert bc[v] == 0.0


@given(graphs())
@settings(max_examples=25, deadline=None)
def test_sigma_counts_are_path_counts(g):
    """Cross-check sigma against brute-force shortest-path enumeration
    via powers of the adjacency relation (BFS layering)."""
    n = g.num_vertices
    s = 0
    fwd = forward_sweep(g, s)
    # Brute force: count shortest paths by DP over BFS levels.
    d = fwd.distances
    count = np.zeros(n)
    count[s] = 1
    order = np.argsort(d)
    for v in order:
        if d[v] <= 0:
            continue
        total = 0.0
        for u in g.neighbors(v):
            if d[u] == d[v] - 1:
                total += count[u]
        count[v] = total
    assert np.allclose(fwd.sigma, count)


@given(graphs(), st.integers(0, 1_000_000))
@settings(max_examples=25, deadline=None)
def test_source_partition_additivity(g, seed):
    """BC over any partition of the sources sums to the full BC."""
    n = g.num_vertices
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < 0.5
    a = betweenness_centrality(g, sources=np.flatnonzero(mask))
    b = betweenness_centrality(g, sources=np.flatnonzero(~mask))
    assert np.allclose(a + b, betweenness_centrality(g), rtol=1e-9, atol=1e-9)


@given(graphs(max_n=14, max_m=30))
@settings(max_examples=20, deadline=None)
def test_forward_sweep_levels_partition(g):
    fwd = forward_sweep(g, 0)
    s_arr = fwd.s_array()
    assert np.unique(s_arr).size == s_arr.size
    assert s_arr.size == int((fwd.distances >= 0).sum())
    ends = fwd.ends()
    assert np.all(np.diff(ends) > 0)  # every level non-empty
