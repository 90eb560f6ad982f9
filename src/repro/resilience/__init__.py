"""Fault tolerance for the distributed BC program (Section V-D at
real-cluster scale): deterministic fault injection, checkpointed root
recovery, and graceful degradation to sampled estimates.

Quickstart
----------
>>> import numpy as np
>>> from repro.graph.generators import figure1_graph
>>> from repro.bc.api import betweenness_centrality
>>> from repro.resilience import FaultPlan, resilient_distributed_bc
>>> g = figure1_graph()
>>> run = resilient_distributed_bc(g, 3, fault_plan=FaultPlan.fail_stop(1))
>>> bool(run.exact)
True
>>> bool(np.allclose(run.values, betweenness_centrality(g)))
True
"""

from .driver import (
    CheckpointStore,
    RankIncident,
    ResilientRun,
    resilient_distributed_bc,
)
from .faults import (
    COLLECTIVES,
    ENOSPC,
    FAIL_STOP,
    FSYNC_LIE,
    OOM,
    ROT,
    SDC,
    SDC_SITES,
    STORAGE_KINDS,
    STORAGE_TARGETS,
    STRAGGLER,
    TORN,
    ActiveFaults,
    FaultEvent,
    FaultPlan,
    FaultyComm,
    FaultyDevice,
    apply_sdc,
    flip_bit,
)

__all__ = [
    "FAIL_STOP",
    "OOM",
    "STRAGGLER",
    "SDC",
    "SDC_SITES",
    "COLLECTIVES",
    "ENOSPC",
    "TORN",
    "FSYNC_LIE",
    "ROT",
    "STORAGE_KINDS",
    "STORAGE_TARGETS",
    "apply_sdc",
    "flip_bit",
    "FaultEvent",
    "FaultPlan",
    "ActiveFaults",
    "FaultyComm",
    "FaultyDevice",
    "CheckpointStore",
    "RankIncident",
    "ResilientRun",
    "resilient_distributed_bc",
]
