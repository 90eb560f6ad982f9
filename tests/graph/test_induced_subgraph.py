"""``induced_subgraph`` builds the same CSR bytes as the rebuild it
replaced.

The reference below is a verbatim copy of the function as it was when it
re-sorted and de-duplicated every induced edge through ``from_edges``.
Inputs cover CSR rows with duplicates, self loops and unsorted targets,
which only a hand-made :class:`CSRGraph` can have.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import sorted_unique
from repro.errors import GraphStructureError
from repro.graph.build import from_edges, induced_subgraph
from repro.graph.csr import CSRGraph
from repro.graph.generators import make_dataset


def ref_induced_subgraph(g, vertices):
    keep = sorted_unique(np.asarray(vertices, dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= g.num_vertices):
        raise IndexError("vertices out of range")
    remap = np.full(g.num_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    src = g.edge_sources()
    mask = (remap[src] >= 0) & (remap[g.adj] >= 0)
    edges = np.column_stack([remap[src[mask]], remap[g.adj[mask]]])
    return from_edges(
        edges, num_vertices=keep.size, undirected=g.undirected,
        dedupe=True, name=g.name, already_symmetric=True,
    )


def assert_same(g, vertices):
    try:
        want = ref_induced_subgraph(g, vertices)
    except GraphStructureError as exc:
        # An odd undirected edge count; the new build must refuse too.
        with pytest.raises(GraphStructureError, match=str(exc)):
            induced_subgraph(g, vertices)
        return
    got = induced_subgraph(g, vertices)
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.adj.tobytes() == want.adj.tobytes()
    assert got.indptr.dtype == want.indptr.dtype
    assert got.adj.dtype == want.adj.dtype
    assert got.undirected == want.undirected
    assert got.name == want.name


@st.composite
def raw_csr(draw):
    """A CSR graph with arbitrary rows: repeats, loops, any order."""
    n = draw(st.integers(1, 14))
    rows = [draw(st.lists(st.integers(0, n - 1), max_size=6))
            for _ in range(n)]
    adj = [v for row in rows for v in row]
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    undirected = draw(st.booleans()) and len(adj) % 2 == 0
    return CSRGraph(indptr, np.asarray(adj, dtype=np.int64),
                    undirected=undirected, name="raw")


@given(raw_csr(), st.data())
@settings(max_examples=150, deadline=None)
def test_matches_rebuild_on_arbitrary_rows(g, data):
    vertices = data.draw(st.lists(st.integers(0, g.num_vertices - 1),
                                  max_size=2 * g.num_vertices))
    assert_same(g, vertices)


@given(st.integers(1, 30), st.lists(st.tuples(st.integers(0, 29),
                                              st.integers(0, 29)),
                                    max_size=80),
       st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_matches_rebuild_on_built_graphs(n, edges, directed, data):
    edges = [(a % n, b % n) for a, b in edges]
    g = from_edges(edges, num_vertices=n, undirected=not directed)
    vertices = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    assert_same(g, vertices)


def test_matches_rebuild_on_the_fold_cores():
    for name, sf in (("kron_g500-logn20", 256), ("caidaRouterLevel", 256),
                     ("luxembourg.osm", 256)):
        g = make_dataset(name, scale_factor=sf, seed=0)
        keep = np.flatnonzero(g.degrees > 1)
        assert_same(g, keep)
