"""Wall-clock micro-benchmarks of the engine primitives.

Unlike the experiment benchmarks (which time a whole table/figure
regeneration once), these measure the real Python/NumPy throughput of
the hot kernels over repeated rounds — the numbers a contributor
watches when optimising the engine.
"""

import numpy as np
import pytest

from repro._util import partition_roots
from repro.bc.api import bc_single_source_dependencies
from repro.bc.frontier import forward_sweep
from repro.graph.generators import delaunay_graph, kronecker_graph, watts_strogatz
from repro.graph.traversal import bfs


@pytest.fixture(scope="module")
def mesh():
    return delaunay_graph(50_000, seed=0)


@pytest.fixture(scope="module")
def sw():
    return watts_strogatz(50_000, k=10, p=0.1, seed=0)


@pytest.fixture(scope="module")
def kron():
    return kronecker_graph(15, edge_factor=16, seed=0)


def test_bfs_mesh(benchmark, mesh):
    out = benchmark(bfs, mesh, 7)
    assert out.num_reached == mesh.num_vertices


def test_bfs_smallworld(benchmark, sw):
    out = benchmark(bfs, sw, 7)
    assert out.max_depth < 12


def test_forward_sweep_kron(benchmark, kron):
    root = int(np.argmax(kron.degrees))
    out = benchmark(forward_sweep, kron, root)
    assert out.sigma[root] == 1.0


def test_single_source_bc_mesh(benchmark, mesh):
    delta = benchmark(bc_single_source_dependencies, mesh, 7)
    assert delta[7] == 0.0
    assert np.all(np.isfinite(delta))


def test_single_source_bc_smallworld(benchmark, sw):
    delta = benchmark(bc_single_source_dependencies, sw, 7)
    assert np.all(delta >= 0)


def test_partitioning_throughput(benchmark):
    roots = np.arange(1_000_000)
    parts = benchmark(lambda: [roots[p] for p in
                               partition_roots(roots.size, 192)])
    assert sum(p.size for p in parts) == roots.size
