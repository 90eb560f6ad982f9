"""Process-pool exact BC: real coarse-grained parallelism over roots.

This is the CPU counterpart of the paper's multi-GPU decomposition
(Section V-D): the graph is replicated into every worker once (via the
pool initializer, so the CSR arrays are pickled a single time per
worker rather than per task), roots are partitioned into chunks, each
worker accumulates a partial BC vector, and the partials are summed —
the in-process equivalent of the final ``MPI_Reduce``.

Worker failures are survivable: a chunk whose worker crashes (a raw
``BrokenProcessPool``, a pickling error, or an injected fault) is
recomputed serially in the parent, so one bad worker degrades
throughput but never loses the run.  Only when that serial fallback
*also* fails does the caller see an error — and then it is a
:class:`~repro.errors.WorkerPoolError`, never a bare pool internals
exception.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .._util import partition_roots
from ..bc.preprocess import root_set
from ..errors import WorkerPoolError
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY

__all__ = ["parallel_betweenness_centrality"]

# Per-worker replicated graph (set by the pool initializer; module-level
# so forked/spawned workers can reach it without per-task pickling).
_WORKER_GRAPH: CSRGraph | None = None
# Chunk indices this worker must hard-crash on (fault injection for the
# resilience tests; empty in normal operation).
_WORKER_CRASH_CHUNKS: frozenset = frozenset()


def _init_worker(indptr: np.ndarray, adj: np.ndarray, undirected: bool,
                 crash_chunks=()) -> None:
    global _WORKER_GRAPH, _WORKER_CRASH_CHUNKS
    _WORKER_GRAPH = CSRGraph(indptr, adj, undirected=undirected)
    _WORKER_CRASH_CHUNKS = frozenset(crash_chunks)


def _chunk_partial(g: CSRGraph, roots: np.ndarray) -> np.ndarray:
    """Accumulate dependencies for one chunk of roots on ``g``, in
    root order (swept in lockstep groups)."""
    from ..bc.accumulation import root_dependencies

    bc = np.zeros(g.num_vertices, dtype=np.float64)
    for delta in root_dependencies(g, roots):
        bc += delta
    return bc


def _worker_partial(task) -> np.ndarray:
    """Worker entry point: ``task`` is ``(chunk_index, roots)``."""
    index, roots = task
    if index in _WORKER_CRASH_CHUNKS:
        # Simulated fail-stop: die without cleanup, exactly like a
        # segfaulting or OOM-killed worker (surfaces to the parent as
        # BrokenProcessPool).
        os._exit(13)
    g = _WORKER_GRAPH
    assert g is not None, "worker pool not initialised"
    return _chunk_partial(g, roots)


def parallel_betweenness_centrality(
    g: CSRGraph,
    sources=None,
    num_workers: int | None = None,
    chunks_per_worker: int = 4,
    _crash_chunks=(),
    metrics=None,
) -> np.ndarray:
    """Exact BC computed across a process pool.

    Parameters
    ----------
    sources:
        Roots to accumulate (all vertices by default).  Out-of-range
        roots raise ``IndexError`` before any worker starts.
    num_workers:
        Pool size; defaults to ``os.cpu_count()``.  ``1`` short-circuits
        to the serial path (no pool spin-up).
    chunks_per_worker:
        Oversubscription factor — more, smaller chunks smooth load
        imbalance between root costs at the price of task overhead.
    _crash_chunks:
        Fault-injection hook (resilience tests): chunk indices whose
        worker hard-exits mid-task.  The run still returns the exact
        result via the serial recovery path.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; records
        chunk counts/latency (``pool.*`` series — chunk latencies are
        wall-clock and export under the ``timing`` key) and serial
        recoveries.  Defaults to the no-op registry.

    Returns the same values as
    :func:`repro.bc.betweenness_centrality`; the test suite asserts it,
    including under injected worker crashes.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    n = g.num_vertices
    roots = root_set(g, sources)
    if num_workers is None:
        num_workers = os.cpu_count() or 1
    num_workers = max(1, int(num_workers))
    if chunks_per_worker < 1:
        raise ValueError("chunks_per_worker must be >= 1")

    if num_workers == 1 or roots.size <= 1:
        from ..bc.api import betweenness_centrality

        with metrics.span("pool.run", path="serial"):
            return betweenness_centrality(g, sources=roots)

    num_chunks = min(roots.size, num_workers * chunks_per_worker)
    chunks = [roots[p] for p in partition_roots(roots.size, num_chunks)
              if p.size]
    bc = np.zeros(n, dtype=np.float64)
    done = np.zeros(len(chunks), dtype=bool)
    metrics.set_gauge("pool.workers", num_workers)
    metrics.inc("pool.chunks", len(chunks))
    with metrics.span("pool.run", path="pool"):
        try:
            with ProcessPoolExecutor(
                max_workers=num_workers,
                initializer=_init_worker,
                initargs=(g.indptr, g.adj, g.undirected, tuple(_crash_chunks)),
            ) as pool:
                t_submit = time.perf_counter()
                futures = [pool.submit(_worker_partial, (i, c))
                           for i, c in enumerate(chunks)]
                for i, fut in enumerate(futures):
                    try:
                        bc += fut.result()  # the MPI_Reduce step
                        done[i] = True
                        # Latency from submission to collection: the
                        # makespan-style number the chunk-size tuning in
                        # `chunks_per_worker` trades against.
                        metrics.observe("pool.chunk_seconds",
                                        time.perf_counter() - t_submit,
                                        wall=True)
                    except Exception:
                        # A crashed worker breaks the pool, so every not-yet
                        # collected chunk lands here too; all of them are
                        # recomputed serially below.
                        metrics.inc("pool.chunk_failures")
        except Exception:
            # Pool creation / task submission itself failed (e.g. spawn or
            # pickling trouble): fall through with whatever completed.
            metrics.inc("pool.pool_failures")

        failed = [chunks[i] for i in np.flatnonzero(~done)]
        if failed:
            # The serial fallback is real compute the pool numbers would
            # otherwise hide: give it its own span and counter so a run
            # that limped home on one core is visible in the registry.
            with metrics.span("pool.recompute", chunks=len(failed)):
                try:
                    for chunk in failed:
                        t_retry = time.perf_counter()
                        bc += _chunk_partial(g, chunk)
                        metrics.inc("pool.chunks_recovered")
                        metrics.inc("pool.recomputed_chunks", path="serial")
                        metrics.observe("pool.recovery_seconds",
                                        time.perf_counter() - t_retry,
                                        wall=True)
                except Exception as exc:
                    raise WorkerPoolError(
                        f"{len(failed)} worker chunk(s) crashed and serial "
                        f"recovery failed: {exc}"
                    ) from exc
    if g.undirected:
        bc /= 2.0
    return bc
