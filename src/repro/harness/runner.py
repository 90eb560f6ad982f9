"""Shared experiment plumbing.

All experiments accept a ``scale_factor`` (how much smaller than the
paper's instances to build the Table II graphs — the default 64 keeps
the full harness comfortably inside a laptop's budget) and a
``root_sample`` (how many BC roots to actually execute; full-n runs
are extrapolated per the uniform-per-root-cost argument the paper
itself relies on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bc.policies import ALPHA, BETA, MIN_FRONTIER
from ..graph.csr import CSRGraph
from ..graph.generators.suite import DATASETS, make_dataset
from ..gpusim.spec import GTX_TITAN, GPUSpec

__all__ = ["ExperimentConfig", "pick_roots", "load_suite_graph"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment.

    The paper's strategy thresholds (:data:`~repro.bc.policies.ALPHA`
    and :data:`~repro.bc.policies.BETA` for the hybrid method, the
    :data:`~repro.bc.policies.MIN_FRONTIER` guard for sampling) are
    architecture constants tuned against paper-scale graphs.  When the
    suite is built at ``1/scale_factor`` of paper size, the harness
    divides them by ``sqrt(scale_factor)``, on the assumption that
    typical frontiers shrink with the square root of the factor (mesh
    and road frontiers ~ n / diameter, mesh diameters ~ sqrt(n)).  That
    assumption is unverified, and the cost model does not support it:
    at 1/8 the scaled thresholds come further from a per-level oracle
    than the paper's on four of six scale-free datasets (ROADMAP item
    1).  At ``scale_factor=1`` they are exactly the paper's values.
    """

    scale_factor: int = 64
    root_sample: int = 24
    seed: int = 0
    gpu: GPUSpec = GTX_TITAN

    def __post_init__(self) -> None:
        if self.scale_factor < 1:
            raise ValueError("scale_factor must be >= 1")
        if self.root_sample < 1:
            raise ValueError("root_sample must be >= 1")

    @property
    def _threshold_divisor(self) -> float:
        return max(1.0, float(self.scale_factor) ** 0.5)

    @property
    def alpha(self) -> int:
        """Hybrid frontier-change threshold, scaled from ``ALPHA``."""
        return max(2, int(ALPHA / self._threshold_divisor))

    @property
    def beta(self) -> int:
        """Hybrid next-frontier threshold, scaled from ``BETA``."""
        return max(2, int(BETA / self._threshold_divisor))

    @property
    def min_frontier(self) -> int:
        """Sampling per-iteration edge-parallel guard, scaled from
        ``MIN_FRONTIER``."""
        return max(2, int(MIN_FRONTIER / self._threshold_divisor))


def load_suite_graph(name: str, cfg: ExperimentConfig) -> CSRGraph:
    """Build one Table II dataset under the experiment config."""
    return make_dataset(name, scale_factor=cfg.scale_factor, seed=cfg.seed)


def pick_roots(g: CSRGraph, k: int, seed: int = 0,
               require_degree: bool = True) -> np.ndarray:
    """Sample ``k`` distinct roots, preferring non-isolated vertices so
    every sampled BFS does representative work."""
    n = g.num_vertices
    rng = np.random.default_rng(seed)
    pool = np.flatnonzero(g.degrees > 0) if require_degree else np.arange(n)
    if pool.size == 0:
        pool = np.arange(n)
    k = min(int(k), pool.size)
    return np.sort(rng.choice(pool, size=k, replace=False)).astype(np.int64)

