"""Sampling strategy selection (Algorithm 5).

The sampling method spends a little *useful* work to classify the
graph: it processes ``n_samps`` (512) source vertices with the
work-efficient method, records the maximum BFS depth of each, and takes
the **median** of those depths as an unbiased, outlier-robust estimate
of the traversal depth the remaining roots will see.  If the median is
below ``gamma * log2(n)`` (gamma = 4) the graph behaves like a
small-world / scale-free network and the edge-parallel method is used
for the remaining roots — still guarded per iteration by a minimum
frontier of :data:`~repro.bc.policies.MIN_FRONTIER` vertices (see
:class:`repro.bc.policies.FrontierGuardPolicy`).  The sampled roots are
simply the first ``n_samps`` the run would process anyway, so the
classification is not wasted work; :meth:`repro.gpusim.Device.run_bc`
takes that prefix of its roots in the order given.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_N_SAMPS",
    "DEFAULT_GAMMA",
    "choose_edge_parallel",
    "classification_record",
]

#: Paper Section IV-C: 512 sampled roots and gamma = 4 (the frontier
#: guard is :data:`repro.bc.policies.MIN_FRONTIER`).
DEFAULT_N_SAMPS = 512
DEFAULT_GAMMA = 4.0


def choose_edge_parallel(
    max_depths,
    num_vertices: int,
    gamma: float = DEFAULT_GAMMA,
) -> bool:
    """Algorithm 5's decision: is the median sampled BFS depth small
    enough that the graph is small-world/scale-free?

    ``keys[n_samps / 2] < gamma * log2(n)`` after sorting — i.e. the
    median (the pseudocode's upper median).
    """
    depths = np.sort(np.asarray(max_depths, dtype=np.float64))
    if depths.size == 0:
        return False
    if num_vertices < 2:
        return False
    median = depths[depths.size // 2]
    return bool(median < gamma * math.log2(num_vertices))


def classification_record(
    max_depths,
    num_vertices: int,
    gamma: float = DEFAULT_GAMMA,
) -> dict:
    """Algorithm 5's decision with its full audit context.

    Returns a JSON-serialisable dict carrying every input the cutoff
    comparison used — the sorted sample depths, their (upper) median,
    ``gamma`` and the ``gamma * log2(n)`` cutoff — plus the outcome and
    a human-readable ``rule`` string, mirroring
    :class:`~repro.bc.policies.Decision` for the graph-level decision.
    The decision-trace subsystem records exactly this dict, so
    ``repro trace explain`` can replay the classification.
    """
    depths = np.sort(np.asarray(max_depths, dtype=np.int64))
    chose = choose_edge_parallel(depths, num_vertices, gamma=gamma)
    record = {
        "policy": "sampling",
        "n_samps": int(depths.size),
        "gamma": float(gamma),
        "num_vertices": int(num_vertices),
        "depths": [int(d) for d in depths],
        "chose_edge_parallel": bool(chose),
    }
    if depths.size == 0 or num_vertices < 2:
        record.update({
            "median_depth": None, "depth_cutoff": None,
            "rule": "degenerate sample (no depths or n < 2): "
                    "work-efficient",
        })
        return record
    median = int(depths[depths.size // 2])
    cutoff = float(gamma) * math.log2(num_vertices)
    cmp = "<" if median < cutoff else ">="
    outcome = ("edge-parallel (small-world/scale-free)" if chose
               else "work-efficient (high diameter)")
    record.update({
        "median_depth": median,
        "depth_cutoff": cutoff,
        "rule": f"median_depth={median} {cmp} gamma*log2(n)="
                f"{gamma:g}*log2({num_vertices})={cutoff:.2f}: {outcome}",
    })
    return record
