"""Betweenness-centrality algorithms: the paper's contribution and its
baselines."""

from .accumulation import accumulate_level, dependency_accumulation
from .api import bc_single_source_dependencies, betweenness_centrality
from .approx import approximate_bc, sample_sources
from .batched import batched_betweenness_centrality, batched_dependencies
from .brandes import brandes_reference, brandes_single_source, normalize_bc
from .edge_parallel import bc_edge_parallel, edge_parallel_root
from .engine import run_root
from .frontier import ForwardResult, forward_sweep
from .preprocess import (
    FOLD_SCHEMA,
    FoldResult,
    fold_degree_one,
    folded_betweenness_centrality,
    per_root_correction,
)
from .policies import (
    ALPHA,
    BETA,
    EDGE_PARALLEL,
    GPU_FAN,
    MIN_FRONTIER,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
    Policy,
)
from .sampling import (
    DEFAULT_GAMMA,
    DEFAULT_N_SAMPS,
    choose_edge_parallel,
)
from .vertex_parallel import bc_vertex_parallel, vertex_parallel_root
from .work_efficient import WorkEfficientState, bc_work_efficient, work_efficient_root

__all__ = [
    "betweenness_centrality",
    "bc_single_source_dependencies",
    "approximate_bc",
    "sample_sources",
    "batched_betweenness_centrality",
    "batched_dependencies",
    "brandes_reference",
    "brandes_single_source",
    "normalize_bc",
    "forward_sweep",
    "ForwardResult",
    "dependency_accumulation",
    "accumulate_level",
    "run_root",
    "FOLD_SCHEMA",
    "FoldResult",
    "fold_degree_one",
    "folded_betweenness_centrality",
    "per_root_correction",
    "bc_work_efficient",
    "work_efficient_root",
    "WorkEfficientState",
    "bc_edge_parallel",
    "edge_parallel_root",
    "bc_vertex_parallel",
    "vertex_parallel_root",
    "Policy",
    "FixedPolicy",
    "HybridPolicy",
    "FrontierGuardPolicy",
    "WORK_EFFICIENT",
    "EDGE_PARALLEL",
    "VERTEX_PARALLEL",
    "GPU_FAN",
    "ALPHA",
    "BETA",
    "MIN_FRONTIER",
    "choose_edge_parallel",
    "DEFAULT_N_SAMPS",
    "DEFAULT_GAMMA",
]
