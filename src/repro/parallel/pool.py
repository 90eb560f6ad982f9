"""Process-pool exact BC: real coarse-grained parallelism over roots.

The CPU counterpart of the paper's multi-GPU program (Section V-D),
and the same program as the resilient driver's: the parent builds one
:func:`~repro.bc.preprocess.root_plan` (folding the graph once) and
ships its traversals — the folded core and its weights — to every
worker once through the pool initializer; workers sum chunks of the
traversal roots, and the parent adds the chunk partials in chunk order
(the ``MPI_Reduce``) before the plan expands the sum to original ids.
The chunking depends on the root count only, so the result has the
same bytes for every worker count, worker crashes included.

Worker failures are survivable: a chunk whose worker crashes (a raw
``BrokenProcessPool``, a pickling error, or an injected fault) is
recomputed serially in the parent, so one bad worker degrades
throughput but never loses the run.  Only when that serial fallback
*also* fails does the caller see an error — and then it is a
:class:`~repro.errors.WorkerPoolError`, never a bare pool internals
exception.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .._util import partition_roots
from ..bc.preprocess import RootPlan, root_plan
from ..errors import WorkerPoolError
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY

__all__ = ["parallel_betweenness_centrality"]

#: Chunks a run's traversal roots are split into (fewer when there are
#: fewer roots), whatever the worker count.
NUM_CHUNKS = 16

# Per-worker replicated traversals (set by the pool initializer;
# module-level so forked/spawned workers can reach them without
# per-task pickling).
_WORKER_PLAN: RootPlan | None = None
# Chunk indices this worker must hard-crash on (fault injection for the
# resilience tests; empty in normal operation).
_WORKER_CRASH_CHUNKS: frozenset = frozenset()


def _init_worker(plan: RootPlan, crash_chunks=()) -> None:
    global _WORKER_PLAN, _WORKER_CRASH_CHUNKS
    _WORKER_PLAN = plan
    _WORKER_CRASH_CHUNKS = frozenset(crash_chunks)


def _worker_partial(task) -> np.ndarray:
    """Worker entry point: ``task`` is ``(chunk_index, roots)``."""
    index, roots = task
    if index in _WORKER_CRASH_CHUNKS:
        # Simulated fail-stop: die without cleanup, exactly like a
        # segfaulting or OOM-killed worker (surfaces to the parent as
        # BrokenProcessPool).
        os._exit(13)
    assert _WORKER_PLAN is not None, "worker pool not initialised"
    return _WORKER_PLAN.accumulate(roots)


def parallel_betweenness_centrality(
    g: CSRGraph,
    sources=None,
    num_workers: int | None = None,
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
        Pool size; defaults to ``os.cpu_count()``.  With one worker (or
        one chunk) the chunks run in-process and no pool starts.
    _crash_chunks:
        Fault-injection hook (resilience tests): chunk indices whose
        worker hard-exits mid-task.  The run still returns the exact
        result via the serial recovery path.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; records
        chunk counts/latency (``pool.*`` series — chunk latencies are
        wall-clock and export under the ``timing`` key) and serial
        recoveries.  Defaults to the no-op registry.

    Returns :func:`repro.bc.betweenness_centrality`'s values up to
    round-off (the roots are summed chunk by chunk), with the same
    bytes for every ``num_workers``.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    plan = root_plan(g, sources)
    if num_workers is None:
        num_workers = os.cpu_count() or 1
    num_workers = max(1, int(num_workers))

    roots = plan.run_roots
    chunks = [roots[p] for p in
              partition_roots(roots.size, max(1, min(NUM_CHUNKS, roots.size)))
              if p.size]
    if num_workers == 1 or len(chunks) <= 1:
        with metrics.span("pool.run", path="serial"):
            partials = [plan.accumulate(c) for c in chunks]
    else:
        partials = _pool_partials(plan, chunks,
                                  min(num_workers, len(chunks)),
                                  _crash_chunks, metrics)
    acc = np.zeros(plan.graph.num_vertices, dtype=np.float64)
    for partial in partials:
        acc += partial  # the MPI_Reduce step, in chunk order
    bc = plan.finish(acc)
    if g.undirected:
        bc /= 2.0
    return bc


def _pool_partials(plan: RootPlan, chunks: list, num_workers: int,
                   crash_chunks, metrics) -> list:
    """Every chunk's sum, in chunk order, from a pool of
    ``num_workers``; a chunk no worker delivered is recomputed
    in-process."""
    partials: list = [None] * len(chunks)
    # The workers need the traversals only: the core and its weights,
    # not the fold (which holds the whole input graph).
    traversals = dataclasses.replace(plan, roots=plan.run_roots, fold=None,
                                     extra=None)
    metrics.set_gauge("pool.workers", num_workers)
    metrics.inc("pool.chunks", len(chunks))
    with metrics.span("pool.run", path="pool"):
        try:
            with ProcessPoolExecutor(
                max_workers=num_workers,
                initializer=_init_worker,
                initargs=(traversals, tuple(crash_chunks)),
            ) as pool:
                t_submit = time.perf_counter()
                futures = [pool.submit(_worker_partial, (i, c))
                           for i, c in enumerate(chunks)]
                for i, fut in enumerate(futures):
                    try:
                        partials[i] = fut.result()
                        # Latency from submission to collection.
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

        failed = [i for i, p in enumerate(partials) if p is None]
        if failed:
            # The serial fallback is real compute the pool numbers would
            # otherwise hide: give it its own span and counter so a run
            # that limped home on one core is visible in the registry.
            with metrics.span("pool.recompute", chunks=len(failed)):
                try:
                    for i in failed:
                        t_retry = time.perf_counter()
                        partials[i] = plan.accumulate(chunks[i])
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
    return partials
