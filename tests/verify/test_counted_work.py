"""Guard: ``--verify=sampled`` does a small, bounded share of the work.

The companion of ``test_overhead.py`` in counted work instead of CPU
time, so it is deterministic and does not move when the executor gets
faster.  Over the same grid (every Table II dataset x every strategy,
16 roots at the benchmark scale), sampled verification must check a
minority of the roots, and its B2/B3 spot-checks must sample and
gather at most 15% (the timing test's budget) of the vertices and
edges the forward sweeps themselves visit and gather.  The suite runs
as one :meth:`~repro.verify.RootChecker.rows_pass` per lockstep group,
and a clean grid never falls back to the per-root
:meth:`~repro.verify.RootChecker.check_root`.  A change that checks
every root, samples or gathers whole rows, or checks a group's rows one
by one, fails here.
"""

import numpy as np
import pytest

from repro.bc import accumulation
from repro.gpusim import Device
from repro.graph.generators.suite import make_dataset
from repro.observability import MetricsRegistry
from repro.verify import RootChecker, VerificationPolicy

from .test_overhead import DATASETS, STRATEGIES

pytestmark = pytest.mark.sdc

BUDGET = 0.15


def _counter(reg, name, **labels):
    return sum(c.value for c in reg.counters() if c.name == name
               and all(c.labels.get(k) == v for k, v in labels.items()))


def test_sampled_verification_work_is_bounded(monkeypatch):
    sampled = {"vertices": 0, "edges": 0}
    sample = RootChecker._sample

    def counting_sample(self, *args):
        smp = sample(self, *args)
        sampled["vertices"] += smp.sample.size
        sampled["edges"] += smp.owner.size
        return smp

    monkeypatch.setattr(RootChecker, "_sample", counting_sample)
    calls = {"groups": 0, "rows_pass": 0, "check_root": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(accumulation, "sweep_group",
                        counting("groups", accumulation.sweep_group))
    for name in ("rows_pass", "check_root"):
        monkeypatch.setattr(RootChecker, name,
                            counting(name, getattr(RootChecker, name)))
    reg = MetricsRegistry()
    for name in DATASETS:
        g = make_dataset(name, scale_factor=1024, seed=0)
        for strategy in STRATEGIES:
            Device().run_bc(g, strategy=strategy, roots=np.arange(16),
                            check_memory=False, verify="sampled",
                            metrics=reg)

    policy = VerificationPolicy("sampled")
    roots = _counter(reg, "engine.roots")
    checked = _counter(reg, "verify.checks", invariant="root")
    swept_vertices = _counter(reg, "engine.frontier_vertices",
                              stage="forward")
    swept_edges = _counter(reg, "engine.frontier_edges", stage="forward")
    assert roots == len(DATASETS) * len(STRATEGIES) * 16
    # The policy hashes one root in root_period into the check.
    assert 0 < checked <= 2 * roots / policy.root_period
    assert 0 < sampled["vertices"] <= policy.sample_vertices * checked
    assert sampled["vertices"] <= BUDGET * swept_vertices
    assert sampled["edges"] <= BUDGET * swept_edges
    # One vectorised pass per group, and no root needed the per-root
    # suite.
    assert 0 < calls["rows_pass"] <= calls["groups"]
    assert calls["check_root"] == 0
