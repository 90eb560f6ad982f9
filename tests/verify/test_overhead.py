"""Guard: ``--verify=sampled`` must stay cheap enough to leave on.

The acceptance bar from the verification-layer design: over the full
BENCH_baseline grid (every Table II dataset x every strategy, at the
benchmark scale), running with sampled verification costs at most 15%
more CPU time than running with verification off.  The sampled
invariant suite is O(n) per checked root plus a vectorised structure
spot-check, so in practice the ratio is far below the bar; the test
exists to catch a regression that sneaks per-edge or per-vertex Python
loops back into the hot path.
"""

import time

import numpy as np
import pytest

from repro.gpusim import Device
from repro.graph.generators.suite import make_dataset

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


def _grid_seconds(graphs, verify):
    # CPU time of this process, not wall time: on a shared host other
    # tenants' load stretches wall time unevenly across the two grids.
    roots = np.arange(16)
    t0 = time.process_time()
    for g in graphs:
        for strategy in STRATEGIES:
            Device().run_bc(g, strategy=strategy, roots=roots,
                            check_memory=False, verify=verify)
    return time.process_time() - t0


def test_sampled_verification_overhead_within_15_percent():
    graphs = [make_dataset(name, scale_factor=1024, seed=0)
              for name in DATASETS]
    _grid_seconds(graphs, "off")  # warm caches before timing
    off = min(_grid_seconds(graphs, "off") for _ in range(3))
    sampled = min(_grid_seconds(graphs, "sampled") for _ in range(3))
    ratio = sampled / off
    assert ratio <= 1.15, (
        f"sampled verification costs {100 * (ratio - 1):.1f}% over "
        f"verify=off across the BENCH grid "
        f"({sampled * 1e3:.0f} ms vs {off * 1e3:.0f} ms); budget is 15%"
    )
