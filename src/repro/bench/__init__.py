"""Benchmark trajectory: run the perf grid, diff it against a baseline.

``BENCH_baseline.json`` pins the repo's simulated performance — makespan
cycles, MTEPS, per-level totals for every (dataset, strategy) pair of
the benchmark grid.  This package is what makes that file *load-bearing*
instead of write-only:

* :func:`run_bench_grid` produces a ``repro.bench/v1`` document (the
  same sweep `benchmarks/baseline.py` commits);
* :func:`load_bench` / :func:`diff_bench` pair two documents by
  (dataset, strategy) and classify every pair — **regressed**,
  **improved**, **unchanged**, **missing**, **new** — under a
  noise-aware tolerance (relative threshold plus a minimum-effect
  floor, so a 5% swing on a 40-cycle run doesn't page anyone);
* the ``repro bench run|diff|report`` CLI commands render the verdict
  as a terminal table and a machine-readable ``repro.bench.diff/v1``
  report, exiting nonzero on regression — the ratcheting perf gate CI's
  ``perf-regression`` job runs against the committed baseline.

The grid body is simulated and therefore deterministic: an
identical-seed rerun diffs all-unchanged (delta exactly zero), so any
nonzero delta is a real behaviour change in the cost model, the engine
or a policy — not harness noise.
"""

from .grid import (
    BENCH_SCHEMA,
    DATASET_NAMES,
    STRATEGY_NAMES,
    default_n_samps,
    run_bench_grid,
)
from .regress import (
    DIFF_SCHEMA,
    BenchDiff,
    Comparison,
    diff_bench,
    load_bench,
    load_diff,
)

__all__ = [
    "BENCH_SCHEMA",
    "DIFF_SCHEMA",
    "DATASET_NAMES",
    "STRATEGY_NAMES",
    "default_n_samps",
    "run_bench_grid",
    "load_bench",
    "load_diff",
    "diff_bench",
    "BenchDiff",
    "Comparison",
]
