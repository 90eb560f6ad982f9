"""Per-root execution engine: values plus one charge call per root.

One call to :func:`run_roots` performs the full Brandes computation for
a list of sources (shortest-path stage then dependency accumulation),
accumulates each root's dependencies into a shared ``bc`` array in
root order, and returns one :class:`~repro.gpusim.trace.RootTrace` per
root, charged by :func:`repro.gpusim.charge.charge` from the root's
frontier profile under the strategy the policy selected for each
iteration.  The values are computed in lockstep groups of roots
(:func:`~repro.bc.frontier.sweep_group`, then the group's backward
stage); everything per root —
charging, observer calls, ``bc +=`` — still runs root by root, so
traces, decision records and ``bc`` bytes do not depend on the group
width.  :func:`run_root` is the one-root case.

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
from .frontier import forward_sweep  # noqa: F401  (see below)
from .frontier import group_width, sweep_group
from .policies import Policy

# The layer tracer of benchmarks/e2e/layers.py wraps ``forward_sweep``,
# ``accumulate_level`` and ``run_root`` by name in this module, so
# ``forward_sweep`` stays importable here although only one-root
# callers use it.

__all__ = ["run_root", "run_roots"]


def _accumulate(grp, target_weights) -> np.ndarray:
    """Stage 2 for a whole group, deepest-but-one level first, over the
    sweep's DAG edges.  This is ``accumulation.accumulate_group``'s
    loop, inlined so that each level is a call to this module's
    ``accumulate_level``, which benchmarks/e2e/layers.py times as the
    accumulation layer."""
    delta = np.zeros(grp.sigma.size, dtype=np.float64)
    target_weights = grp.by_key(target_weights)
    ratio = grp.ratio_scales()
    for depth in range(len(grp.levels) - 2, 0, -1):
        owner, succ = grp.dag[depth]
        accumulate_level(grp.levels[depth], owner, succ, grp.sigma, delta,
                         sigma_ratio_scale=ratio[depth],
                         target_weights=target_weights)
    return delta.reshape(grp.size, grp.num_vertices)


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
        Optional hook with ``after_forward(grp, r)`` and
        ``after_accumulation(grp, r, delta)`` methods, called for each
        root after its forward sweep has been charged and after its
        dependency accumulation (before its dependencies are folded
        into ``bc``): ``grp`` is the root's
        :class:`~repro.bc.frontier.ForwardGroup`, ``r`` its row and
        ``delta`` the group's ``(k, n)`` dependencies, row ``r`` being
        this root's.  Used by the SDC verification layer to inject
        faults into, and run ABFT checks over, a root's intermediate
        state.  A group's accumulation runs after its first root's
        ``after_forward``, so an observer that writes into the state
        (fault injection) needs ``width=1``.
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
    sources = np.asarray(sources, dtype=np.int64).ravel()
    if width is None:
        width = group_width(g)
    traces = []
    for lo in range(0, sources.size, width):
        grp = sweep_group(g, sources[lo:lo + width])
        delta = None
        for r, profile in enumerate(FrontierProfile.of_group(g, grp)):
            # Charging before the observer keeps every decision record
            # ahead of any corruption the observer raises for this root.
            trace = charge(profile, policy, costs, chunk,
                           device_chunk=device_chunk, metrics=metrics)
            if observer is not None:
                observer.after_forward(grp, r)
            if delta is None:
                delta = _accumulate(grp, target_weights)
                if source_weights is not None:
                    delta *= source_weights[lo:lo + grp.size, None]
            if observer is not None:
                observer.after_accumulation(grp, r, delta)
            bc += delta[r]
            metrics.inc("engine.roots")
            metrics.observe("engine.root_cycles", trace.cycles)
            traces.append(trace)
    return traces


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
