"""Per-root execution engine: values plus columnar charging per group.

One call to :func:`run_roots` performs the full Brandes computation for
a list of sources (shortest-path stage then dependency accumulation),
accumulates each root's dependencies into a shared ``bc`` array in
root order, and returns one :class:`~repro.gpusim.trace.RootTrace` per
root, charged from the root's frontier profile under the strategy the
policy selected for each iteration.  The values come from the
executor's one root loop, :func:`~repro.bc.accumulation.root_dependencies`
(lockstep groups of roots), with charging as its per-root forward hook:
a group is decided and costed as one block
(:func:`repro.gpusim.charge.charge_rows`), and everything else per root
— recording its row and decision block
(:func:`repro.gpusim.charge.record_root`), observer calls, ``bc +=`` —
runs root by root, so traces, decision records and ``bc`` bytes do not
depend on the group width.  :func:`run_root` is the one-root case.
Charging is a :class:`~repro.gpusim.charge.Charges` object: one
policy's, or the device's charges of every strategy it runs
(:meth:`repro.gpusim.Device.run_strategies`), so one sweep is charged
every way.

Every strategy computes identical values — the strategies differ only
in the thread-to-work assignment being costed — so correctness is
verified once against the serial reference and literal kernel
re-implementations, while performance comparisons come from the
charged cycles.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim.charge import Charges, FrontierProfile
from ..gpusim.cost import CostModel
from ..gpusim.trace import RootTrace
from .accumulation import accumulate_level  # noqa: F401  (see below)
from .accumulation import root_dependencies
from .frontier import forward_sweep  # noqa: F401  (see below)
from .policies import Policy

# The layer tracer of benchmarks/e2e/layers.py wraps ``forward_sweep``,
# ``accumulate_level`` and ``run_root`` by name in this module, so the
# first two stay importable here although the engine no longer calls
# them itself.

__all__ = ["run_root", "run_roots"]


class _Loop:
    """The root loop's observer: each group's profile and each root's
    turn go to the charges, then to the run's observer."""

    def __init__(self, g: CSRGraph, charges, observer):
        self.g, self.charges, self.observer = g, charges, observer

    def after_forward(self, grp, r: int) -> None:
        if r == 0:  # a new group
            self.charges.group(FrontierProfile.of_group(self.g, grp))
        self.charges.root(r)
        if self.observer is not None:
            self.observer.after_forward(grp, r)

    def after_accumulation(self, grp, r: int, delta: np.ndarray) -> None:
        if self.observer is not None:
            self.observer.after_accumulation(grp, r, delta)


def run_roots(
    g: CSRGraph,
    sources,
    bc: np.ndarray,
    charges,
    costs: CostModel | None = None,
    chunk: int | None = None,
    device_chunk: int | None = None,
    metrics=None,
    observer=None,
    source_weights: np.ndarray | None = None,
    target_weights: np.ndarray | None = None,
    width: int | None = None,
) -> list:
    """Process BC roots, sweeping each once, and charge them; returns
    the charges' traces (one :class:`~repro.gpusim.trace.RootTrace`
    per root, in order, for a policy).

    Parameters
    ----------
    charges:
        A :class:`~repro.gpusim.charge.Charges`, or a
        :class:`~repro.bc.policies.Policy` to charge every root under,
        with ``costs``, ``chunk``, ``device_chunk`` and ``metrics``.
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
        Optional :class:`~repro.observability.MetricsRegistry` of a
        policy's charges: per-level ``engine.*`` counters and the
        policy's ``decision.*`` trace events, with their full α/β
        inputs (:mod:`repro.observability.trace`).
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
        Most roots per lockstep group; defaults to
        :func:`~repro.bc.frontier.group_width` of ``g``.
    """
    if isinstance(charges, Policy):
        charges = Charges(charges, costs, chunk, device_chunk, metrics)
    for delta in root_dependencies(g, sources, target_weights,
                                   observer=_Loop(g, charges, observer),
                                   source_weights=source_weights,
                                   width=width):
        charges.add(bc, delta)
    return charges.traces


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
