"""Kernel cost model: cycles charged per BFS/accumulation iteration.

The model charges exactly the quantities the paper's analysis reasons
about (Sections III and IV):

* **Edge-parallel** kernels touch *every* directed edge on *every*
  iteration with perfectly coalesced, perfectly balanced accesses —
  cheap per edge, but the work is O(m) per level regardless of how few
  edges actually matter.
* **Work-efficient** kernels touch only the frontier's edges, but the
  per-thread work equals the vertex's out-degree, so a chunk of ``T``
  concurrent threads is as slow as its highest-degree member
  (warp/block serialisation); accesses are queue-driven gathers
  (scattered), and queue insertion costs an atomic CAS + append
  (Algorithm 2, lines 5-7).
* **Vertex-parallel** kernels additionally pay a per-vertex depth check
  on all n vertices every level (the O(n^2 + m) traversal).
* Every level costs one kernel launch / device-wide barrier.

All methods return cycles for ONE thread block (one SM) processing one
level of one root, except the GPU-FAN and batched variants, which
cooperate across the whole device (``device_chunk``).  Each kernel's
formula is written once, in array form over many levels
(``*_levels``, returning forward and backward cycles per level); the
per-level ``*_forward``/``*_backward`` methods charge one level
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .._util import concat_ranges

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Cycle charges for the kernel primitives.

    Attributes
    ----------
    edge_coalesced:
        Cycles per edge inspection in the edge-parallel layout
        (streaming, fully coalesced).
    edge_scattered:
        Cycles per edge traversal through a queue-driven gather
        (uncoalesced neighbour list access), including the atomic
        traffic of discovery/path-counting.  Applies to the first
        ``stream_threshold`` edges of a thread's row.
    edge_streamed:
        Cycles per edge beyond ``stream_threshold`` in one thread's
        row: a long adjacency list is contiguous in CSR, so a single
        thread walking it hits full cache lines and pipelines its loads
        — hubs are slow, but not ``edge_scattered``-per-edge slow.
    stream_threshold:
        Row length beyond which a thread's traversal reaches streaming
        throughput.
    atomic:
        Cycles per atomic operation (CAS on ``d``, atomicAdd on sigma or
        the queue tail) in the *edge-parallel* layout, where colliding
        updates from many threads are the norm.
    queue_op:
        Cycles per queue element copy (Q_next -> Q_curr, S append).
    enqueue:
        How discovered vertices enter Q_next: ``"cas"`` (the paper's
        choice — an atomicAdd on the queue tail per discovery, folded
        into the scattered per-edge charge) or ``"prefix-sum"``
        (Merrill et al.'s cooperative enqueue).  The paper rejects the
        prefix sum because at per-SM granularity *every* SM must scan
        its whole candidate set independently (Section IV-A); the
        ``prefix-sum`` variant charges exactly that scan so the
        trade-off can be reproduced (benchmarks/test_ablation.py).
    prefix_scan_factor:
        Cycles per scanned element per scan pass in prefix-sum mode.
    vertex_check:
        Cycles per per-vertex "is it in this depth?" check
        (vertex-parallel only).
    launch:
        Fixed cycles per iteration.  The per-SM methods run one
        persistent block per SM, so an iteration boundary is only a
        block-level ``__syncthreads()`` plus loop bookkeeping — tens of
        cycles, not a kernel launch.
    gpu_fan_sync_multiplier:
        GPU-FAN synchronises *all* thread blocks between iterations
        (fine-grained-only parallelism requires a device-wide barrier,
        i.e. a kernel relaunch costing microseconds), which is orders
        of magnitude costlier than the single-block sync above.
    imbalance:
        If False, chunk serialisation is disabled (each chunk charged
        its mean instead of its max) — the ablation knob showing why
        scale-free graphs punish the work-efficient method.
    cycle_scale:
        Uniform multiplier applied to every per-iteration cost.  The
        structural model above counts work units; real irregular
        kernels are additionally DRAM-latency- and occupancy-bound
        (hundreds of cycles per dependent gather that 256 resident
        threads only partially hide).  A uniform factor leaves every
        ratio the paper reports untouched while bringing absolute
        simulated times within the right order of magnitude, which
        matters wherever simulated kernel time is balanced against
        real-world fixed costs (the cluster model's setup and
        communication terms, Figure 6 / Table IV).
    """

    edge_coalesced: float = 2.0
    edge_scattered: float = 16.0
    edge_streamed: float = 4.0
    stream_threshold: int = 32
    atomic: float = 6.0
    queue_op: float = 4.0
    enqueue: str = "cas"
    prefix_scan_factor: float = 3.0
    vertex_check: float = 1.0
    launch: float = 50.0
    gpu_fan_sync_multiplier: float = 60.0
    imbalance: bool = True
    cycle_scale: float = 100.0

    # -- helpers ------------------------------------------------------
    def _row_cycles(self, degrees: np.ndarray) -> np.ndarray:
        """Per-thread cycles to traverse a row of each given length:
        scattered cost up to ``stream_threshold`` edges, streaming cost
        beyond (long CSR rows are contiguous)."""
        deg = np.asarray(degrees, dtype=np.float64)
        short = np.minimum(deg, self.stream_threshold)
        long = deg - short
        return short * self.edge_scattered + long * self.edge_streamed

    def _serialized(self, degrees: np.ndarray, sizes: np.ndarray,
                    starts: np.ndarray, chunk: int) -> np.ndarray:
        """Per-level chunked execution time of per-thread costs: level
        ``l``'s ``sizes[l]`` rows are consecutive in ``degrees``; each of
        ``starts`` begins a chunk (see module doc), as slow as its
        highest-degree row (edge costs are cycle counts, never negative,
        so :meth:`_row_cycles` is non-decreasing).  Without imbalance
        each level costs its mean.

        A level's chunk maxima (or row costs) are summed in order.  With
        integer-valued edge costs, as in every shipped model, each sum
        is exact and so equals the sum in any other order."""
        if not self.imbalance:  # every row alone
            starts = np.arange(degrees.size)
        top = self._row_cycles(
            np.maximum.reduceat(degrees, starts) if starts.size else [])
        total = np.bincount(np.searchsorted(np.cumsum(sizes), starts, "right"),
                            top, minlength=sizes.size)
        return np.trunc(total) if self.imbalance else total / chunk

    # -- work-efficient (Algorithms 2 and 3) --------------------------
    def we_levels(self, degrees: np.ndarray, sizes, chunk: int) -> tuple:
        """Forward and backward cycles of work-efficient levels.

        ``degrees`` concatenates each level's frontier degrees in queue
        order; ``sizes`` holds each level's frontier size.  A level's
        queue is cut into chunks of ``chunk`` threads.
        """
        deg = np.asarray(degrees)
        sizes = np.asarray(sizes, dtype=np.int64)
        chunks = -(-sizes // chunk)
        starts = ((np.cumsum(sizes) - sizes).repeat(chunks)
                  + concat_ranges(np.zeros_like(chunks), chunks) * chunk)
        serial = self._serialized(deg, sizes, starts, chunk)
        queue = np.ceil(sizes / chunk) * self.queue_op
        forward = serial + queue * 2  # Q_next->Q_curr, S append
        if self.enqueue == "prefix-sum":
            # Cooperative enqueue: this SM alone scans every candidate
            # edge of the level (one flag per inspected edge), paying
            # O(edge_frontier / chunk) scan passes — the overhead the
            # paper measured and rejected.
            level = np.repeat(np.arange(sizes.size), sizes)
            ef = np.bincount(level, deg, minlength=sizes.size)
            passes = np.array([math.log2(max(e, 2.0)) for e in ef.tolist()])
            forward = forward + ef / chunk * self.prefix_scan_factor * passes
        elif self.enqueue != "cas":
            raise ValueError(f"unknown enqueue mode {self.enqueue!r}")
        # Backward: atomic-free successor scan, then read the S segment.
        backward = serial * 0.8 + queue
        return ((forward + self.launch) * self.cycle_scale,
                (backward + self.launch) * self.cycle_scale)

    def we_forward(self, frontier_degrees: np.ndarray, chunk: int) -> float:
        """One shortest-path-calculation level, work-efficient kernel."""
        deg = np.asarray(frontier_degrees)
        return float(self.we_levels(deg, [deg.size], chunk)[0][0])

    def we_backward(self, level_degrees: np.ndarray, chunk: int) -> float:
        """One dependency-accumulation level (atomic-free successor scan)."""
        deg = np.asarray(level_degrees)
        return float(self.we_levels(deg, [deg.size], chunk)[1][0])

    # -- edge-parallel (Jia et al. / GPU-FAN layout) -------------------
    def ep_levels(self, num_directed_edges: int, useful_edges,
                  chunk: int) -> tuple:
        """Forward and backward cycles of edge-parallel levels: every
        level scans all edges and relaxes its ``useful_edges``; backward
        predecessor updates are atomic too (Section IV-A), so both
        stages cost the same."""
        useful = np.asarray(useful_edges, dtype=np.float64)
        cycles = math.ceil(num_directed_edges / chunk) * self.edge_coalesced
        cycles = cycles + useful / chunk * self.atomic
        out = (cycles + self.launch) * self.cycle_scale
        return out, out

    def ep_forward(self, num_directed_edges: int, useful_edges: int,
                   chunk: int) -> float:
        """One forward level: scan all edges, relax the useful ones."""
        return float(self.ep_levels(num_directed_edges, [useful_edges],
                                    chunk)[0][0])

    def ep_backward(self, num_directed_edges: int, useful_edges: int,
                    chunk: int) -> float:
        """One backward level: scan all edges; predecessor updates are
        atomic in the edge-parallel layout (Section IV-A)."""
        return float(self.ep_levels(num_directed_edges, [useful_edges],
                                    chunk)[1][0])

    # -- vertex-parallel (Jia et al.) ----------------------------------
    def vp_levels(self, num_vertices: int, ids: np.ndarray,
                  degrees: np.ndarray, sizes, chunk: int) -> tuple:
        """Forward and backward cycles of vertex-parallel levels.

        Every vertex is checked each level; frontier vertices traverse
        their edges in place (no queue), so thread ``v`` belongs to
        chunk ``v // chunk``.  ``ids``/``degrees`` concatenate each
        level's frontier ids (ascending within a level) and degrees;
        ``sizes`` holds each level's frontier size.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        # A chunk starts each level and wherever v // chunk changes.
        new = np.diff(np.asarray(ids) // chunk, prepend=-1) != 0
        new[(np.cumsum(sizes) - sizes)[sizes > 0]] = True
        serial = self._serialized(np.asarray(degrees), sizes,
                                  np.flatnonzero(new), chunk)
        check = math.ceil(num_vertices / chunk) * self.vertex_check
        return ((check + serial + self.launch) * self.cycle_scale,
                (check + serial * 0.8 + self.launch) * self.cycle_scale)

    def vp_forward(self, num_vertices: int, masked_degrees: np.ndarray,
                   chunk: int) -> float:
        """One forward level: every vertex checked, frontier vertices
        traverse their edges in-place (no queue)."""
        return self._vp_one(num_vertices, masked_degrees, chunk)[0]

    def vp_backward(self, num_vertices: int, masked_degrees: np.ndarray,
                    chunk: int) -> float:
        """One backward level of the vertex-parallel kernel."""
        return self._vp_one(num_vertices, masked_degrees, chunk)[1]

    def _vp_one(self, num_vertices, masked_degrees, chunk) -> tuple:
        masked = np.asarray(masked_degrees)
        ids = np.flatnonzero(masked)
        fwd, bwd = self.vp_levels(num_vertices, ids, masked[ids], [ids.size],
                                  chunk)
        return float(fwd[0]), float(bwd[0])

    # -- GPU-FAN -------------------------------------------------------
    def gpu_fan_levels(self, num_directed_edges: int, useful_edges,
                       device_chunk: int) -> tuple:
        """Forward and backward cycles of GPU-FAN levels: the whole
        device on one root, with a global sync per level; both stages
        cost the same."""
        useful = np.asarray(useful_edges, dtype=np.float64)
        cycles = (math.ceil(num_directed_edges / device_chunk)
                  * self.edge_coalesced)
        cycles = cycles + useful / device_chunk * self.atomic
        cycles = cycles + self.launch * self.gpu_fan_sync_multiplier
        out = cycles * self.cycle_scale
        return out, out

    def gpu_fan_forward(self, num_directed_edges: int, useful_edges: int,
                        device_chunk: int) -> float:
        """GPU-FAN forward level: whole device on one root, global sync."""
        return float(self.gpu_fan_levels(num_directed_edges, [useful_edges],
                                         device_chunk)[0][0])

    def gpu_fan_backward(self, num_directed_edges: int, useful_edges: int,
                         device_chunk: int) -> float:
        """GPU-FAN backward level."""
        return float(self.gpu_fan_levels(num_directed_edges, [useful_edges],
                                         device_chunk)[1][0])

    # -- batched multi-source (Sarıyüce et al., reference [33]) --------
    def batched_levels(self, edge_pairs, device_chunk: int) -> tuple:
        """Forward and backward cycles of frontier-matrix levels for a
        whole root batch.

        The ``(k, n) x (n, n)`` product streams each active row's edges
        exactly once — fully coalesced, BLAS-shaped, no queues and no
        atomics (path counts accumulate inside the product) — and the
        whole device cooperates, so one launch covers every root in the
        batch.  ``edge_pairs`` is each level's summed edge frontier
        across the batch's rows.  The backward product is the same
        regular stream, transposed, so both stages cost the same.
        """
        pairs = np.asarray(edge_pairs, dtype=np.float64)
        cycles = np.ceil(pairs / device_chunk) * self.edge_coalesced
        out = (cycles + self.launch) * self.cycle_scale
        return out, out

    def batched_forward(self, edge_pairs: int, device_chunk: int) -> float:
        """One frontier-matrix level for a whole root batch."""
        return float(self.batched_levels([edge_pairs], device_chunk)[0][0])

    def batched_backward(self, edge_pairs: int, device_chunk: int) -> float:
        """One batched dependency-accumulation level."""
        return float(self.batched_levels([edge_pairs], device_chunk)[1][0])

    # -- variants ------------------------------------------------------
    def without_imbalance(self) -> "CostModel":
        """Ablation variant with chunk serialisation disabled."""
        return replace(self, imbalance=False)


#: Default constants, calibrated so the paper's cross-over shapes hold
#: (see benchmarks/test_ablation.py and EXPERIMENTS.md).
DEFAULT_COSTS = CostModel()
