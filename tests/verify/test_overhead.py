"""Guard: ``--verify=sampled`` must stay cheap enough to leave on.

The acceptance bar from the verification-layer design: over the full
BENCH_baseline grid (every Table II dataset x every strategy, at the
benchmark scale), sampled verification's own CPU time is at most 15%
of the rest of the grid's.  Both are measured in the same sampled
grids: the verification time is what the run's
:class:`~repro.verify.RootObserver` spends in its construction, its
per-root hooks and ``finish``; the rest is the grid's time without it.
Timing the two sides in one grid, rather than comparing grids run
seconds apart with verification on and off, keeps the host's drift
between grids out of the ratio.  The sampled invariant suite is a few
whole-block reductions per lockstep group plus O(n) per-root work, so
in practice the ratio is well below the bar; the test exists to catch
a regression that sneaks per-edge, per-vertex or per-row Python loops
back into the hot path.  ``test_counted_work.py`` bounds the same
work in counts.
"""

import time

import numpy as np
import pytest

from repro.gpusim import Device
from repro.graph.generators.suite import make_dataset
from repro.verify import RootObserver

pytestmark = pytest.mark.sdc

DATASETS = [
    "caidaRouterLevel",
    "delaunay_n20",
    "kron_g500-logn20",
    "luxembourg.osm",
    "smallworld",
]
STRATEGIES = [
    "edge-parallel",
    "hybrid",
    "sampling",
    "vertex-parallel",
    "work-efficient",
]
#: Every entry point of the observer a run calls.
HOOKS = ("__init__", "after_forward", "after_accumulation", "finish")


def _grid_seconds(graphs, verify):
    # CPU time of this process, not wall time: on a shared host other
    # tenants' load stretches wall time unevenly.
    roots = np.arange(16)
    t0 = time.process_time()
    for g in graphs:
        for strategy in STRATEGIES:
            Device().run_bc(g, strategy=strategy, roots=roots,
                            check_memory=False, verify=verify)
    return time.process_time() - t0


def _time_observer(monkeypatch) -> list:
    """Accumulate the CPU seconds spent inside :data:`HOOKS` into the
    returned one-element list."""
    spent = [0.0]

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += time.process_time() - t0
        return wrapper

    for name in HOOKS:
        monkeypatch.setattr(RootObserver, name,
                            timed(getattr(RootObserver, name)))
    return spent


def test_sampled_verification_overhead_within_15_percent(monkeypatch):
    graphs = [make_dataset(name, scale_factor=1024, seed=0)
              for name in DATASETS]
    _grid_seconds(graphs, "off")  # warm caches before timing
    spent = _time_observer(monkeypatch)
    runs = []
    for _ in range(3):
        before = spent[0]
        grid = _grid_seconds(graphs, "sampled")
        verify = spent[0] - before
        runs.append((verify / (grid - verify), grid, verify))
    ratio, grid, verify = min(runs)
    assert ratio <= 0.15, (
        f"sampled verification costs {100 * ratio:.1f}% of the rest of "
        f"the BENCH grid ({verify * 1e3:.1f} ms of a "
        f"{grid * 1e3:.0f} ms sampled grid); budget is 15%"
    )
