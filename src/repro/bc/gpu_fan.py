"""GPU-FAN baseline model (Shi & Zhang, Section III-B).

GPU-FAN differs from the Jia et al. implementation (and from ours) in
two ways the paper analyses:

1. **Fine-grained parallelism only** — all thread blocks of the device
   cooperate on the edge-parallel traversal of a *single* root at a
   time, requiring device-wide synchronisation between iterations.
   Roots are therefore processed sequentially.
2. **O(n^2) predecessor storage** — a dense predecessor matrix instead
   of Jia's O(m) boolean array, which "severely limits the scalability
   of this algorithm": on a 6 GB card it exhausts device memory at
   modest vertex counts, reproduced by the memory ledger in
   :mod:`repro.gpusim.memory` (Figure 5's missing data points).

Values are identical to every other strategy; only cost and memory
differ, so the model reuses the shared engine with the ``gpu-fan``
strategy label.
"""

from __future__ import annotations

from ..graph.csr import CSRGraph

__all__ = ["predecessor_matrix_bytes", "supports_graph"]


def predecessor_matrix_bytes(num_vertices: int) -> int:
    """Bytes of GPU-FAN's dense predecessor matrix (1 byte per entry)."""
    n = int(num_vertices)
    return n * n


def supports_graph(g: CSRGraph, device_memory_bytes: int) -> bool:
    """Whether GPU-FAN's data structures fit on a device of the given
    capacity (the scalability cliff of Figure 5)."""
    from ..gpusim.memory import strategy_footprint

    need = sum(strategy_footprint(g, "gpu-fan", num_blocks=1).values())
    return need <= int(device_memory_bytes)
