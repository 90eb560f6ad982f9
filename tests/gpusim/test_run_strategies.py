"""One sweep, charged every way: :meth:`Device.run_strategies`.

Every strategy computes the same values, so a call sweeps each root
once and charges each lockstep group under every strategy it names.
Each :class:`DeviceRun` it returns must be what :meth:`Device.run_bc`
of that strategy alone returns, field by field, and the harness's
paper experiments must sweep each root once per graph.
"""

import numpy as np
import pytest

from repro.bc import accumulation
from repro.errors import StrategyError
from repro.gpusim.device import STRATEGIES, Device
from repro.harness.experiments import figure4
from repro.harness.runner import ExperimentConfig
from repro.observability import MetricsRegistry

from .test_golden_digests import GRAPHS, PARAMS

OPTIONS = {k: v for params in PARAMS.values() for k, v in params.items()}


@pytest.fixture
def swept(monkeypatch):
    """Every root the root loop sweeps, in order."""
    roots = []
    original = accumulation.sweep_group

    def spy(g, sources, metrics=None):
        roots.extend(np.asarray(sources).tolist())
        return original(g, sources, metrics=metrics)

    monkeypatch.setattr(accumulation, "sweep_group", spy)
    return roots


def _fields(run) -> tuple:
    return (run.bc.tobytes(), [rt.levels for rt in run.trace.roots],
            run.cycles, run.fixed_cycles, run.fixed_roots,
            run.sampling_chose_edge_parallel, run.roots_per_trace,
            run.memory_report)


@pytest.mark.parametrize("verify", ["off", "sampled"])
@pytest.mark.parametrize("fold", [True, False])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_each_run_is_its_strategy_alone(swept, graph, fold, verify):
    g = GRAPHS[graph]()
    # A folded full run weights its core roots; unfolded, every third
    # vertex is as good a root set as all of them, and a third the cost.
    roots = None if fold else np.arange(0, g.num_vertices, 3)
    runs = Device().run_strategies(g, STRATEGIES, roots, fold=fold,
                                   verify=verify, **OPTIONS)
    sweep = list(swept)
    assert list(runs) == list(STRATEGIES)
    for strategy, run in runs.items():
        alone = Device().run_bc(g, strategy=strategy, roots=roots, fold=fold,
                                verify=verify, **PARAMS.get(strategy, {}))
        assert _fields(run) == _fields(alone), strategy
    # Each root once, in order: every core vertex of a non-trivial fold.
    if run.fold is not None:
        roots = range(run.fold.core.num_vertices)
    assert sweep == list(range(g.num_vertices) if roots is None else roots)


def test_batched_steady_roots_are_summed_per_batch():
    """A run whose batches ran keeps their values' batch order."""
    g = GRAPHS["small_kron"]()
    roots = np.arange(0, g.num_vertices, 5)
    runs = Device().run_strategies(g, ("work-efficient", "batched"),
                                   roots=roots, **OPTIONS)
    batched = runs["batched"]
    assert batched.sampling_chose_edge_parallel and batched.roots_per_trace == 8
    alone = Device().run_bc(g, strategy="batched", roots=roots,
                            **PARAMS["batched"])
    assert batched.bc.tobytes() == alone.bc.tobytes()
    np.testing.assert_allclose(batched.bc, runs["work-efficient"].bc,
                               rtol=1e-12)


def test_runs_do_not_share_score_arrays():
    runs = Device().run_strategies(GRAPHS["fig1"](), ("work-efficient",
                                                      "edge-parallel"))
    assert not np.shares_memory(runs["work-efficient"].bc,
                                runs["edge-parallel"].bc)


def test_one_registry_records_one_strategy():
    g = GRAPHS["fig1"]()
    with pytest.raises(ValueError):
        Device().run_strategies(g, ("work-efficient", "hybrid"),
                                metrics=MetricsRegistry())
    with pytest.raises(StrategyError, match="unknown strategy 'linear'"):
        Device().run_strategies(g, ("work-efficient", "linear"))


def test_figure4_sweeps_each_root_once_per_graph(swept):
    cfg = ExperimentConfig(scale_factor=4096, root_sample=4)
    result = figure4.run(cfg, names=["smallworld", "luxembourg.osm"])
    assert len(result.rows) == 2
    assert len(swept) == 2 * cfg.root_sample
