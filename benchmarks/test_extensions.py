"""Benchmarks for the beyond-the-paper extensions (DESIGN.md §7).

* incremental BC vs full recompute after an edge insertion;
* the adaptive single-vertex estimator vs an exact column;
* process-pool parallel BC vs the serial engine (real wall clock).
"""

import numpy as np
from conftest import run_once

from repro.bc.api import betweenness_centrality
from repro.bc.approx import adaptive_vertex_bc
from repro.bc.brandes import brandes_reference
from repro.bc.dynamic import insert_edge
from repro.graph.generators import watts_strogatz
from repro.parallel import parallel_betweenness_centrality


def test_extension_incremental_update(benchmark):
    """An incremental insert must equal the full recompute and touch at
    most n roots (usually fewer)."""
    g = watts_strogatz(900, k=4, p=0.02, seed=5)
    bc = betweenness_centrality(g)

    def update():
        return insert_edge(g, bc, 10, 14)  # a local shortcut

    g2, bc2, stats = run_once(benchmark, update)
    benchmark.extra_info["affected_fraction"] = stats.affected_fraction
    assert np.allclose(bc2, betweenness_centrality(g2))
    assert stats.num_affected <= g.num_vertices
    assert stats.num_affected < g.num_vertices  # some roots filtered


def test_extension_adaptive_estimator(benchmark):
    """The adaptive estimator converges on a central vertex long before
    sampling every root, within a constant factor."""
    g = watts_strogatz(500, k=6, p=0.05, seed=2)
    exact = brandes_reference(g)
    hub = int(np.argmax(exact))

    est = run_once(benchmark, adaptive_vertex_bc, g, hub, c=2.0, seed=0)
    benchmark.extra_info["samples_used"] = est.samples_used
    assert est.converged
    assert est.samples_used < g.num_vertices // 2
    assert 0.4 * exact[hub] < est.estimate < 2.5 * exact[hub]


def test_extension_process_pool(benchmark):
    """The pool decomposition returns identical values; wall-clock
    speedup is environment-dependent, so only correctness and
    completion are asserted while the benchmark records the time."""
    g = watts_strogatz(2500, k=8, p=0.1, seed=1)
    roots = np.arange(300)

    out = run_once(benchmark, parallel_betweenness_centrality, g,
                   sources=roots, num_workers=2)
    expect = betweenness_centrality(g, sources=roots)
    assert np.allclose(out, expect)


def test_extension_batched_engine(benchmark):
    """Batched BC (lockstep batches of roots) matches the queue engine
    exactly on a small-diameter graph — its intended regime."""
    from repro.bc.batched import batched_betweenness_centrality

    g = watts_strogatz(15_000, k=10, p=0.1, seed=0)
    roots = np.arange(96)

    out = run_once(benchmark, batched_betweenness_centrality, g,
                   sources=roots, batch_size=48)
    assert np.allclose(out, betweenness_centrality(g, sources=roots))
