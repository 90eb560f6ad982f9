"""Grouped device runs export exactly what one-root-at-a-time runs do.

:meth:`Device.run_bc` sweeps a phase's roots in lockstep groups of
:func:`repro.bc.frontier.group_width` roots.  Charging, decision
records, verification and ``bc +=`` still run root by root, so a run's
``bc`` bytes, :class:`RootTrace` levels, metric export and
``repro.trace/v1`` document must not depend on the group width.
``GROUP_CELLS = 0`` forces one root per group.
"""

import json

import numpy as np
import pytest

from repro.bc import accumulation, engine, frontier
from repro.errors import SilentCorruptionError
from repro.graph.build import from_edges
from repro.graph.generators import kronecker_graph, road_network, watts_strogatz
from repro.gpusim.device import STRATEGIES, Device
from repro.observability import MetricsRegistry
from repro.observability.trace import trace_document
from repro.verify import VerificationPolicy

PARAMS = {
    "hybrid": {"alpha": 2, "beta": 10},
    "sampling": {"n_samps": 4, "min_frontier": 10},
    "batched": {"n_samps": 4, "batch_size": 8},
}


def _overflow():
    """Path counts overflow float64 unless rescaled per level."""
    edges, prev, nxt = [], [0], 1
    for _ in range(380):
        layer = list(range(nxt, nxt + 8))
        nxt += 8
        edges.extend((p, q) for p in prev for q in layer)
        prev = layer
    return from_edges(edges, name="overflow")


GRAPHS = {
    "small_sw": lambda: watts_strogatz(150, k=6, p=0.1, seed=3),
    "small_road": lambda: road_network(200, seed=11),
    "small_kron": lambda: kronecker_graph(8, edge_factor=8, seed=5),
    "overflow": _overflow,
}


def _wall_free(export: dict) -> dict:
    """The export without wall-clock values (they differ run to run)."""
    out = dict(export)
    out.pop("timing", None)
    out["counters"] = [c for c in export["counters"]
                       if c["name"] != "verify.overhead_seconds"]
    return out


def _run(graph: str, strategy: str, verify: str) -> tuple:
    g = GRAPHS[graph]()
    kw = dict(PARAMS.get(strategy, {}))
    if graph == "overflow":
        kw.update(roots=np.arange(12), gamma=1000.0, batch_size=4)
    else:
        kw.update(roots=np.arange(0, g.num_vertices, 7))
    metrics = MetricsRegistry()
    run = Device().run_bc(g, strategy=strategy, metrics=metrics,
                          verify=verify, **kw)
    doc = trace_document(metrics, run=run, graph=g)
    return (run.bc.tobytes(), repr(run.trace.roots), run.cycles,
            json.dumps(_wall_free(metrics.export()), sort_keys=True),
            json.dumps(doc, sort_keys=True, default=str))


#: Every strategy on every graph; the overflow graph is there for
#: batches whose path counts are rescaled per level.
CASES = [(graph, strategy) for graph in sorted(GRAPHS)
         for strategy in STRATEGIES
         if graph != "overflow" or strategy in ("batched", "work-efficient")]


@pytest.mark.parametrize("verify", ["off", "sampled", "paranoid"])
@pytest.mark.parametrize("graph,strategy", CASES)
def test_grouped_run_equals_one_root_run(monkeypatch, graph, strategy,
                                         verify):
    grouped = _run(graph, strategy, verify)
    monkeypatch.setattr(frontier, "GROUP_CELLS", 0)
    one_by_one = _run(graph, strategy, verify)
    assert grouped == one_by_one


def test_groups_are_wide_on_small_graphs(monkeypatch):
    widths = []
    original = engine.run_roots

    def spy(*args, **kwargs):
        widths.append(kwargs["width"])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "run_roots", spy)
    Device().run_bc(GRAPHS["small_sw"](), strategy="work-efficient",
                    roots=np.arange(20))
    assert widths and all(w > 1 for w in widths)


def test_planned_bit_flips_run_one_root_at_a_time(monkeypatch):
    """SDC events are consumed per root position and must strike one
    root's state before its accumulation, so the group width is 1."""
    widths = []
    original = engine.run_roots

    def spy(*args, **kwargs):
        widths.append(kwargs["width"])
        return original(*args, **kwargs)

    class Pending(Device):
        def _sdc_pending(self):
            return True

    monkeypatch.setattr(engine, "run_roots", spy)
    g = GRAPHS["small_sw"]()
    run = Pending().run_bc(g, strategy="work-efficient", roots=np.arange(20))
    assert widths == [1]
    want = Device().run_bc(g, strategy="work-efficient", roots=np.arange(20))
    assert run.bc.tobytes() == want.bc.tobytes()


@pytest.mark.parametrize("verify", ["sampled", "paranoid"])
def test_a_corrupt_root_in_a_group_fails_at_its_turn(monkeypatch, verify):
    """A group's checks run together, but a root that fails them raises
    at its own turn: later roots of the group are never charged."""
    original = accumulation.accumulate_group

    def corrupting(grp, target_weights):
        delta = original(grp, target_weights)
        delta[2] += 1.0
        return delta

    monkeypatch.setattr(accumulation, "accumulate_group", corrupting)
    g = GRAPHS["small_sw"]()
    roots = np.arange(0, 40, 5)
    metrics = MetricsRegistry()
    policy = VerificationPolicy(verify, root_period=1)
    with pytest.raises(SilentCorruptionError) as exc:
        Device().run_bc(g, strategy="work-efficient", roots=roots,
                        verify=policy, metrics=metrics, fold=False)
    assert exc.value.root == roots[2]
    charged = [ev["root"] for ev in metrics.events
               if ev["event"] == "decision.initial"]
    assert charged == roots[:3].tolist()
