"""NumPy component labels against scipy's ``connected_components``.

``graph.build._component_labels`` numbers (weak) components by their
lowest vertex without importing scipy; scipy is the oracle here only.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.graph.build import _component_labels, from_edges
from repro.graph.generators import make_dataset
from tests.bc.test_differential import GRAPHS


def scipy_labels(g) -> np.ndarray:
    n = g.num_vertices
    mat = sp.csr_matrix(
        (np.ones(g.adj.size, dtype=np.int8), g.adj, g.indptr), shape=(n, n))
    _, labels = connected_components(mat, directed=not g.undirected,
                                     connection="weak")
    return labels


def assert_same_labels(g) -> None:
    got = _component_labels(g)
    assert got.shape == (g.num_vertices,)
    np.testing.assert_array_equal(got, scipy_labels(g))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_exactness_matrix_graphs(name):
    assert_same_labels(GRAPHS[name]())


@pytest.mark.parametrize("name,scale", [("caidaRouterLevel", 256),
                                        ("kron_g500-logn20", 64),
                                        ("luxembourg.osm", 64)])
def test_datasets(name, scale):
    assert_same_labels(make_dataset(name, scale_factor=scale, seed=0))


def _path_order(order: str, n: int) -> np.ndarray:
    ids = np.arange(n)
    if order == "zigzag":
        return np.concatenate([ids[0::2], ids[1::2][::-1]])
    if order == "random":
        return np.random.default_rng(5).permutation(n)
    if order == "reversed":
        return ids[::-1]
    return ids


@pytest.mark.parametrize("undirected", [True, False])
@pytest.mark.parametrize("order", ["sorted", "zigzag", "random", "reversed"])
def test_adversarial_paths(order, undirected):
    # One long path plus a second one and isolated vertices after it.
    ids = _path_order(order, 3000)
    edges = np.column_stack([ids[:-1], ids[1:]])
    edges = edges[np.flatnonzero(np.arange(edges.shape[0]) != 1800)]
    g = from_edges(edges, num_vertices=3010, undirected=undirected)
    assert_same_labels(g)
    assert _component_labels(g).max() + 1 == 12


def test_empty_graph():
    g = from_edges([], num_vertices=0)
    assert _component_labels(g).shape == (0,)


def test_self_loops_and_isolated_vertices():
    g = from_edges([(0, 0), (2, 2), (2, 3), (5, 5)], num_vertices=7,
                   dedupe=False)
    assert_same_labels(g)
    assert _component_labels(g).tolist() == [0, 1, 2, 2, 3, 4, 5]


@st.composite
def graphs(draw, max_n=40, max_m=80):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=max_m))
    return from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2),
                      num_vertices=n, undirected=draw(st.booleans()),
                      dedupe=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_matches_scipy_on_random_graphs(g):
    assert_same_labels(g)
