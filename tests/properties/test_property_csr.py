"""Property-based tests for CSR construction and transforms."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util import sorted_unique
from repro.graph.build import from_edges, relabel, symmetrize_edges


@st.composite
def edge_lists(draw, max_n=24, max_m=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m, max_size=m,
        )
    )
    return n, edges


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_csr_invariants(case):
    n, edges = case
    g = from_edges(edges, num_vertices=n)
    assert g.indptr.size == n + 1
    assert g.indptr[0] == 0
    assert g.indptr[-1] == g.adj.size
    assert np.all(np.diff(g.indptr) >= 0)
    if g.adj.size:
        assert 0 <= g.adj.min() and g.adj.max() < n
    # Undirected storage: adjacency is symmetric.
    src = g.edge_sources()
    fwd = set(zip(src.tolist(), g.adj.tolist()))
    assert all((b, a) in fwd for a, b in fwd)
    # No self loops, no duplicates.
    assert all(a != b for a, b in fwd)
    assert len(fwd) == g.adj.size


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_degree_sum_equals_adjacency(case):
    n, edges = case
    g = from_edges(edges, num_vertices=n)
    assert int(g.degrees.sum()) == g.num_directed_edges
    assert g.num_directed_edges == 2 * g.num_edges


@given(edge_lists(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_relabel_preserves_structure(case, rnd):
    n, edges = case
    g = from_edges(edges, num_vertices=n)
    perm = list(range(n))
    rnd.shuffle(perm)
    g2 = relabel(g, np.asarray(perm))
    assert g2.num_edges == g.num_edges
    assert sorted(g2.degrees.tolist()) == sorted(g.degrees.tolist())
    # Adjacency is conjugated by the permutation.
    perm_arr = np.asarray(perm)
    for v in range(n):
        expect = sorted(perm_arr[g.neighbors(v)].tolist())
        assert sorted(g2.neighbors(int(perm_arr[v])).tolist()) == expect


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_symmetrize_idempotent_on_build(case):
    n, edges = case
    g1 = from_edges(edges, num_vertices=n)
    sym = symmetrize_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    g2 = from_edges(sym, num_vertices=n, already_symmetric=True)
    assert np.array_equal(g1.adj, g2.adj)
    assert np.array_equal(g1.indptr, g2.indptr)


@given(st.sampled_from([np.int32, np.int64]),
       st.lists(st.integers(-2**31, 2**31 - 1), max_size=80),
       st.integers(0, 3))
@example(np.int64, [], 0)
@example(np.int32, [7], 0)
@example(np.int64, [5, 5, 5, 5], 0)
@example(np.int32, [-4, 3, -4, 0, 3, -2**31], 0)
@settings(max_examples=80, deadline=None)
def test_sorted_unique_matches_np_unique(dtype, values, repeat):
    # ``repeat`` tiles the list so duplicates are common, not rare.
    a = np.tile(np.asarray(values, dtype=dtype), repeat + 1)
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _reference_from_edges(edges, n, undirected, dedupe, already_symmetric):
    """The CSR builder as it was before sort-based dedupe: row-unique
    edges (``np.unique(axis=0)``), then a (source, target) lexsort."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if undirected and not already_symmetric:
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
    if dedupe:
        edges = edges[edges[:, 0] != edges[:, 1]]
        if edges.size:
            edges = np.unique(edges, axis=0)
    if edges.size:
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    counts = np.bincount(edges[:, 0], minlength=n).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return indptr, edges[:, 1]


@given(edge_lists(max_n=30, max_m=90), st.booleans(), st.booleans(),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_from_edges_matches_reference_builder(case, undirected, dedupe,
                                              already_symmetric, rnd):
    n, edges = case
    # Duplicates, self-loops and unsorted rows, whatever hypothesis drew.
    edges = edges + edges[: len(edges) // 3] + [(v, v) for v in range(0, n, 7)]
    if undirected and already_symmetric:
        edges = edges + [(b, a) for a, b in edges]
    rnd.shuffle(edges)
    g = from_edges(edges, num_vertices=n, undirected=undirected,
                   dedupe=dedupe, already_symmetric=already_symmetric)
    indptr, adj = _reference_from_edges(edges, n, undirected, dedupe,
                                        already_symmetric)
    assert g.indptr.tobytes() == indptr.astype(g.indptr.dtype).tobytes()
    assert g.adj.tobytes() == adj.astype(g.adj.dtype).tobytes()
