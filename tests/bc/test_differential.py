"""Differential test matrix: every BC implementation against Brandes.

One parametrized grid — (implementation x graph) — is the repo's
single source of value-correctness truth.  Each of the 12
implementations (the three literal kernels, the vectorised engine, the
batched engine, and the simulated device under each of its seven
strategies) must reproduce the Brandes reference exactly on every structural class the generators produce:
meshes, scale-free graphs with isolated vertices, high-diameter roads,
small worlds, communities, router topologies, web crawls, plus the
degenerate cases (single vertex, edgeless, disconnected) and directed
graphs.

Per-module test files keep their *behavioural* tests (traces, cost
charging, error paths, batching fallbacks); their scattered
value-equivalence checks were folded into this matrix.

The matrix runs twice: once with the degree-1 folding preprocess
disabled (the raw kernels against Brandes) and once folded (every
implementation traverses the reduced core, and the expanded result must
match the unfolded Brandes oracle to 1e-9) — including the directed and
disconnected cases, where the fold is the identity and must change
nothing.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.bc.api import betweenness_centrality
from repro.bc.batched import batched_betweenness_centrality
from repro.bc.brandes import brandes_reference
from repro.bc.edge_parallel import bc_edge_parallel, edge_parallel_root
from repro.bc.preprocess import fold_degree_one, folded_betweenness_centrality
from repro.bc.vertex_parallel import bc_vertex_parallel, vertex_parallel_root
from repro.bc.work_efficient import bc_work_efficient, work_efficient_root
from repro.graph.build import from_edges
from repro.graph.generators import (
    community_graph,
    copying_web_graph,
    delaunay_graph,
    figure1_graph,
    kronecker_graph,
    random_geometric_graph,
    road_network,
    router_topology,
    watts_strogatz,
)
from repro.gpusim import Device


def _device_bc(strategy, fold=False):
    def run(g):
        # check_memory off: gpu-fan's O(n^2) predecessor matrix is a
        # capacity question (Figure 5), not a correctness one.
        return Device().run_bc(g, strategy=strategy, check_memory=False,
                               fold=fold).bc

    run.__name__ = f"device_{strategy}"
    return run


def _folded_literal(forward):
    """Folded variant of a literal kernel: the kernel's own forward
    sweep on the reduced core, followed by the weighted accumulation of
    :mod:`repro.bc.preprocess` (endpoint term ``w[v] + delta`` instead
    of ``1 + delta``), expanded back to original vertex ids."""

    def dependencies(core, cs, tw):
        d, sigma = forward(core, cs)
        n = core.num_vertices
        delta = np.zeros(n, dtype=np.float64)
        reached = (d >= 0) & (d < n)
        if reached.sum() > 1:
            for dep in range(int(d[reached].max()) - 1, 0, -1):
                for w in np.flatnonzero(d == dep):
                    w = int(w)
                    acc = 0.0
                    for v in core.adj[core.indptr[w]:core.indptr[w + 1]]:
                        v = int(v)
                        if d[v] == dep + 1:
                            acc += sigma[w] / sigma[v] * (tw[v] + delta[v])
                    delta[w] = acc
        return delta

    def run(g):
        bc = folded_betweenness_centrality(fold_degree_one(g), dependencies)
        if g.undirected:
            bc /= 2.0
        return bc

    return run


def _we_forward(core, cs):
    state = work_efficient_root(core, cs)
    return state.d, state.sigma


def _ep_forward(core, cs):
    d, sigma, _, _ = edge_parallel_root(core, cs)
    return d, sigma


def _vp_forward(core, cs):
    d, sigma, _, _ = vertex_parallel_root(core, cs)
    return d, sigma


#: Implementation under test -> callable(graph) -> BC vector (folding
#: explicitly off: this half of the matrix is the raw kernels).
ALGORITHMS = {
    "engine": lambda g: betweenness_centrality(g, fold=False),
    "work_efficient": bc_work_efficient,
    "edge_parallel": bc_edge_parallel,
    "vertex_parallel": bc_vertex_parallel,
    "batched": lambda g: batched_betweenness_centrality(g, fold=False),
    "device_work_efficient": _device_bc("work-efficient"),
    "device_edge_parallel": _device_bc("edge-parallel"),
    "device_vertex_parallel": _device_bc("vertex-parallel"),
    "device_gpu_fan": _device_bc("gpu-fan"),
    "device_hybrid": _device_bc("hybrid"),
    "device_sampling": _device_bc("sampling"),
    "device_batched": _device_bc("batched"),
}

#: Folded variant of every implementation: traverse the degree-1 core,
#: expand, and the values must still equal the unfolded Brandes oracle.
FOLDED_ALGORITHMS = {
    "engine": lambda g: betweenness_centrality(g, fold=True),
    "work_efficient": _folded_literal(_we_forward),
    "edge_parallel": _folded_literal(_ep_forward),
    "vertex_parallel": _folded_literal(_vp_forward),
    "batched": lambda g: batched_betweenness_centrality(g, fold=True),
    "device_work_efficient": _device_bc("work-efficient", fold=True),
    "device_edge_parallel": _device_bc("edge-parallel", fold=True),
    "device_vertex_parallel": _device_bc("vertex-parallel", fold=True),
    "device_gpu_fan": _device_bc("gpu-fan", fold=True),
    "device_hybrid": _device_bc("hybrid", fold=True),
    "device_sampling": _device_bc("sampling", fold=True),
    "device_batched": _device_bc("batched", fold=True),
}

#: Graph case -> zero-arg builder.  One representative per generator
#: class, sized so the full matrix stays fast, plus the degenerate and
#: directed cases the per-module tests used to cover piecemeal.
GRAPHS = {
    "fig1": figure1_graph,
    "path5": lambda: from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]),
    "star7": lambda: from_edges([(0, i) for i in range(1, 7)]),
    "cycle6": lambda: from_edges([(i, (i + 1) % 6) for i in range(6)]),
    "two_components": lambda: from_edges(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], num_vertices=7),
    "single_vertex": lambda: from_edges([], num_vertices=1),
    "edgeless4": lambda: from_edges([], num_vertices=4),
    "directed_dag": lambda: from_edges(
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)], undirected=False),
    "directed_cycles": lambda: from_edges(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 4)],
        undirected=False),
    "delaunay": lambda: delaunay_graph(60, seed=7),
    "kron": lambda: kronecker_graph(5, edge_factor=8, seed=5),
    "road": lambda: road_network(80, seed=11),
    "smallworld": lambda: watts_strogatz(64, k=6, p=0.1, seed=3),
    "community": lambda: community_graph(60, mean_community=15, seed=2),
    "router": lambda: router_topology(60, attach=3, seed=4),
    "rgg": lambda: random_geometric_graph(64, avg_degree=6.0, seed=13),
    "web": lambda: copying_web_graph(64, out_degree=4, seed=9),
    # Pendant-heavy fixtures: the degree-1 fold's best cases, where the
    # peel removes most (or all but one) of the graph.
    "pendant_star": lambda: from_edges([(0, i) for i in range(1, 41)]),
    "caterpillar": lambda: from_edges(
        [(i, i + 1) for i in range(9)]
        + [(i, 10 + 2 * i + j) for i in range(10) for j in range(2)]),
    "broom": lambda: from_edges(
        [(i, i + 1) for i in range(9)] + [(9, 10 + j) for j in range(15)]),
    "tree_of_cliques": lambda: from_edges(
        # three K4 cliques joined in a tree, with pendant chains/leaves
        [(a, b) for base in (0, 4, 8)
         for a in range(base, base + 4)
         for b in range(a + 1, base + 4)]
        + [(3, 4), (7, 8)]
        + [(11, 12), (12, 13), (0, 14), (5, 15)]),
}


@functools.lru_cache(maxsize=None)
def _case(name):
    """Build each graph (and its Brandes oracle) once for the matrix."""
    g = GRAPHS[name]()
    return g, brandes_reference(g)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_matches_brandes(algo, graph_name):
    g, expect = _case(graph_name)
    got = ALGORITHMS[algo](g)
    assert got.shape == expect.shape
    assert np.allclose(got, expect), (
        f"{algo} diverges from Brandes on {graph_name}: "
        f"max |err| = {np.max(np.abs(got - expect)):.3e}"
    )


@pytest.mark.fold
@pytest.mark.parametrize("algo", sorted(FOLDED_ALGORITHMS))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_folded_matches_unfolded_brandes(algo, graph_name):
    """The exactness matrix of the degree-1 preprocess: every
    implementation, run folded, must reproduce the *unfolded* Brandes
    values to 1e-9 on every structural class — including directed and
    disconnected graphs, where the fold is the identity."""
    g, expect = _case(graph_name)
    got = FOLDED_ALGORITHMS[algo](g)
    assert got.shape == expect.shape
    err = float(np.max(np.abs(got - expect))) if got.size else 0.0
    assert err <= 1e-9, (
        f"folded {algo} diverges from Brandes on {graph_name}: "
        f"max |err| = {err:.3e}"
    )


@pytest.mark.fold
def test_pendant_fixtures_actually_fold():
    """The new fixtures must exercise deep peels, not identity folds."""
    for name, expect_core in [("pendant_star", 1), ("caterpillar", 1),
                              ("broom", 1), ("tree_of_cliques", 12)]:
        g, _ = _case(name)
        fold = fold_degree_one(g)
        assert fold.core.num_vertices == expect_core, name
    for name in ("directed_dag", "directed_cycles"):
        g, _ = _case(name)
        assert fold_degree_one(g).is_identity, name


def test_kron_case_has_isolated_vertices():
    """The matrix must keep exercising the Section V-B failure mode."""
    g, _ = _case("kron")
    assert g.isolated_vertices().size > 0


def test_matrix_covers_disconnected_and_directed():
    assert _case("two_components")[0].num_vertices == 7
    assert not _case("directed_dag")[0].undirected
