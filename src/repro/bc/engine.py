"""Per-root execution engine: values plus one charge call.

One call to :func:`run_root` performs the full Brandes computation for
one source (shortest-path stage then dependency accumulation),
accumulates the dependencies into a shared ``bc`` array, and returns a
:class:`~repro.gpusim.trace.RootTrace` charged by
:func:`repro.gpusim.charge.charge` from the sweep's frontier profile
under the strategy the policy selected for each iteration.

Every strategy computes identical values — the strategies differ only
in the thread-to-work assignment being costed — so correctness is
verified once against the serial reference and literal kernel
re-implementations, while performance comparisons come from the
charged cycles.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim.charge import FrontierProfile, charge
from ..gpusim.cost import CostModel
from ..gpusim.trace import RootTrace
from ..observability.registry import NULL_REGISTRY
from .accumulation import accumulate_level
from .frontier import forward_sweep
from .policies import Policy

__all__ = ["run_root"]


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
    """Process one BC root under ``policy``, charging ``costs``.

    Parameters
    ----------
    bc:
        Shared accumulator; this root's dependencies are added in place
        (the per-GPU partial score vector of Section V-D).
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
        Optional hook with ``after_forward(fwd)`` and
        ``after_accumulation(fwd, delta)`` methods, called after the
        forward sweep has been charged and after dependency accumulation (before the
        dependencies are folded into ``bc``).  Used by the SDC
        verification layer to inject faults into, and run ABFT checks
        over, this root's intermediate state.
    source_weight / target_weights:
        Weighted-traversal parameters for degree-1 folded cores (see
        :mod:`repro.bc.preprocess`): each target vertex counts
        ``target_weights[t]`` times during accumulation, and the whole
        dependency vector is scaled by ``source_weight`` (the root's
        absorbed subtree weight) before it is folded into ``bc``.  The
        defaults reproduce the classic unweighted traversal exactly.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    fwd = forward_sweep(g, source)
    # Charging before the observer keeps every decision record ahead of
    # any corruption the observer raises for this root.
    trace = charge(FrontierProfile.of_sweep(g, fwd), policy, costs, chunk,
                   device_chunk=device_chunk, metrics=metrics)
    if observer is not None:
        observer.after_forward(fwd)

    # Stage 2 — dependency accumulation, deepest-but-one level first.
    delta = np.zeros(g.num_vertices, dtype=np.float64)
    scales = fwd.level_scales
    for depth in range(len(fwd.levels) - 2, 0, -1):
        ratio_scale = 1.0
        if scales is not None and depth + 1 < scales.size:
            ratio_scale = 1.0 / scales[depth + 1]
        accumulate_level(g, fwd.levels[depth], fwd.distances, fwd.sigma,
                         delta, sigma_ratio_scale=ratio_scale,
                         target_weights=target_weights)
    if source_weight != 1.0:
        delta *= source_weight
    if observer is not None:
        observer.after_accumulation(fwd, delta)
    bc += delta
    metrics.inc("engine.roots")
    metrics.observe("engine.root_cycles", trace.cycles)
    return trace
