"""Per-root execution engine: values plus columnar charging per group.

One call to :func:`run_roots` performs the full Brandes computation for
a list of sources (shortest-path stage then dependency accumulation),
accumulates each root's dependencies into a shared ``bc`` array in
root order, and returns one :class:`~repro.gpusim.trace.RootTrace` per
root, charged from the root's frontier profile under the strategy the
policy selected for each iteration.  The values come from the
executor's one root loop, :func:`~repro.bc.accumulation.root_dependencies`
(lockstep groups of roots), with charging as its per-root forward hook:
a group's roots are decided and costed together
(:func:`repro.gpusim.charge.charge_rows`), and everything else per root
— recording its metrics and decision block
(:func:`repro.gpusim.charge.record_root`), observer calls, ``bc +=`` —
runs root by root, so traces, decision records and ``bc`` bytes do not
depend on the group width.  :func:`run_root` is the one-root case.

Every strategy computes identical values — the strategies differ only
in the thread-to-work assignment being costed — so correctness is
verified once against the serial reference and literal kernel
re-implementations, while performance comparisons come from the
charged cycles.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim.charge import FrontierProfile, charge_rows, record_root
from ..gpusim.cost import CostModel
from ..gpusim.trace import RootTrace
from ..observability.registry import NULL_REGISTRY
from .accumulation import accumulate_level  # noqa: F401  (see below)
from .accumulation import root_dependencies
from .frontier import forward_sweep  # noqa: F401  (see below)
from .policies import Policy

# The layer tracer of benchmarks/e2e/layers.py wraps ``forward_sweep``,
# ``accumulate_level`` and ``run_root`` by name in this module, so the
# first two stay importable here although the engine no longer calls
# them itself.

__all__ = ["run_root", "run_roots"]


class _Charger:
    """:func:`run_roots`' observer: charges each group's roots at once,
    then records each root at its own turn and hands it to the run's
    own observer, so decision records precede any corruption that
    observer raises and no later root is recorded after it."""

    def __init__(self, g: CSRGraph, observer, policy: Policy,
                 costs: CostModel, chunk: int, device_chunk: int | None,
                 metrics):
        self.g = g
        self.observer = observer
        self.policy = policy
        self.costs = costs
        self.chunk = chunk
        self.device_chunk = device_chunk
        self.metrics = metrics
        self.traces: list = []
        self._rows: list = []

    def after_forward(self, grp, r: int) -> None:
        if r == 0:  # a new group
            self._rows = charge_rows(FrontierProfile.of_group(self.g, grp),
                                     self.policy, self.costs, self.chunk,
                                     self.device_chunk)
        self.traces.append(record_root(self._rows[r], self.policy,
                                       self.metrics))
        if self.observer is not None:
            self.observer.after_forward(grp, r)

    def after_accumulation(self, grp, r: int, delta: np.ndarray) -> None:
        if self.observer is not None:
            self.observer.after_accumulation(grp, r, delta)


def run_roots(
    g: CSRGraph,
    sources,
    bc: np.ndarray,
    policy: Policy,
    costs: CostModel,
    chunk: int,
    device_chunk: int | None = None,
    metrics=None,
    observer=None,
    source_weights: np.ndarray | None = None,
    target_weights: np.ndarray | None = None,
    width: int | None = None,
) -> list:
    """Process BC roots under ``policy``, charging ``costs``; returns
    one :class:`~repro.gpusim.trace.RootTrace` per root, in order.

    Parameters
    ----------
    bc:
        Shared accumulator; each root's dependencies are added in place,
        in root order (the per-GPU partial score vector of Section V-D).
    chunk:
        Effective concurrent threads of one SM (thread block width the
        serialisation model chunks against).
    device_chunk:
        Device-wide concurrency, required for the ``gpu-fan`` strategy
        (all SMs cooperate on a single root).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; records
        per-level ``engine.*`` counters (frontier/edge counts, cycles,
        strategy chosen per level) and ``decision.*`` trace events (the
        policy's per-iteration strategy selections with their full α/β
        inputs, consumed by :mod:`repro.observability.trace`).  Defaults
        to the no-op registry, so uninstrumented runs pay nothing.
    observer:
        Optional per-root hook of
        :func:`~repro.bc.accumulation.root_dependencies` (such as
        :class:`~repro.verify.RootObserver`); its ``after_forward``
        runs once the root has been charged.
    source_weights / target_weights:
        Weighted-traversal parameters for degree-1 folded cores (see
        :mod:`repro.bc.preprocess`): each target vertex counts
        ``target_weights[t]`` times during accumulation, and root
        ``sources[i]``'s dependency vector is scaled by
        ``source_weights[i]`` (its absorbed subtree weight) before it
        is folded into ``bc``.  ``None`` reproduces the classic
        unweighted traversal exactly.
    width:
        Roots per lockstep group; defaults to
        :func:`~repro.bc.frontier.group_width` of ``g``.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    charger = _Charger(g, observer, policy, costs, chunk, device_chunk,
                       metrics)
    for delta in root_dependencies(g, sources, target_weights,
                                   observer=charger,
                                   source_weights=source_weights,
                                   width=width):
        bc += delta
        metrics.inc("engine.roots")
        metrics.observe("engine.root_cycles", charger.traces[-1].cycles)
    return charger.traces


def run_root(
    g: CSRGraph,
    source: int,
    bc: np.ndarray,
    policy: Policy,
    costs: CostModel,
    chunk: int,
    device_chunk: int | None = None,
    metrics=None,
    observer=None,
    source_weight: float = 1.0,
    target_weights: np.ndarray | None = None,
) -> RootTrace:
    """Process one BC root under ``policy``, charging ``costs``: the
    one-root case of :func:`run_roots` (``source_weight`` scales this
    root's dependencies)."""
    return run_roots(g, [source], bc, policy, costs, chunk,
                     device_chunk=device_chunk, metrics=metrics,
                     observer=observer,
                     source_weights=np.array([source_weight]),
                     target_weights=target_weights, width=1)[0]
