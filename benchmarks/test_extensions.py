"""Benchmarks for the beyond-the-paper extensions (DESIGN.md §7).

* process-pool parallel BC vs the serial engine (real wall clock);
* batched BC (lockstep batches of roots) vs the serial engine.
"""

import numpy as np
from conftest import run_once

from repro.bc.api import betweenness_centrality
from repro.graph.generators import watts_strogatz
from repro.parallel import parallel_betweenness_centrality


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
