"""Execution traces produced by the simulated kernels.

Traces carry, per BFS level: the vertex-frontier size (Figure 3), the
edge-frontier size (Table I), the strategy that processed the level
(hybrid switching behaviour), and the cycles charged — which is what
Table I correlates frontier sizes against.

:func:`repro.gpusim.charge.charge_rows` builds a :class:`RootTrace`
from :class:`LevelColumns` — one list per field, one entry per forward
depth — and a run rarely reads more than a root's total cycles and
depth.  So a trace built from columns keeps them: :attr:`RootTrace.cycles`,
:attr:`~RootTrace.max_depth` and the frontier series read the columns,
and the :class:`LevelTrace` list is materialised on first access of
:attr:`RootTrace.levels` (after which the trace is an ordinary list of
levels again).  Either way a trace has the same levels, ``repr``,
equality and derived values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["LevelColumns", "LevelTrace", "RootTrace", "RunTrace"]


@dataclass(frozen=True)
class LevelTrace:
    """One kernel iteration (one BFS level, one stage)."""

    depth: int
    stage: str  # "forward" or "backward"
    strategy: str  # "work-efficient" | "edge-parallel" | "vertex-parallel" | "gpu-fan"
    frontier_size: int
    edge_frontier: int
    cycles: float


class LevelColumns(NamedTuple):
    """A charged root's levels as columns, one entry per forward depth.

    Depth ``d`` ran under ``strategy[d]`` with vertex frontier
    ``size[d]`` and edge frontier ``edges[d]``, and cost ``forward[d]``
    cycles in the forward stage and ``backward[d]`` in the backward one.
    Only depths ``1 .. len(size) - 2`` have a backward level (the
    deepest level has no successors, the root no dependency), so the
    other ``backward`` entries are ignored.
    """

    root: int
    strategy: list
    size: list
    edges: list
    forward: list
    backward: list

    def backward_cycles(self) -> list:
        """The backward levels' cycles, deepest first (trace order)."""
        return self.backward[1:len(self.size) - 1][::-1]


class RootTrace:
    """All iterations of one BC root (shortest paths + accumulation):
    forward levels by depth, then backward levels deepest first."""

    def __init__(self, root: int, levels: list | None = None):
        self.root = root
        self._levels = [] if levels is None else levels
        self._columns = None

    @classmethod
    def from_columns(cls, columns: LevelColumns) -> "RootTrace":
        """The trace of a charged root, its levels built on first read."""
        trace = cls(columns.root)
        trace._columns = columns
        return trace

    @property
    def levels(self) -> list:
        """Every level, as :class:`LevelTrace` records."""
        cols = self._columns
        if cols is not None:
            strategy, size, edges = cols.strategy, cols.size, cols.edges
            forward, backward = cols.forward, cols.backward
            self._levels = [
                LevelTrace(depth, "forward", strategy[depth], size[depth],
                           edges[depth], forward[depth])
                for depth in range(len(size))]
            self._levels += [
                LevelTrace(depth, "backward", strategy[depth], size[depth],
                           edges[depth], backward[depth])
                for depth in range(len(size) - 2, 0, -1)]
            self._columns = None
        return self._levels

    def add(self, level: LevelTrace) -> None:
        self.levels.append(level)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(root={self.root!r}, "
                f"levels={self.levels!r})")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.root, self.levels) == (other.root, other.levels)

    __hash__ = None

    @property
    def cycles(self) -> float:
        """Total cycles this root cost on its SM."""
        cols = self._columns
        if cols is not None:
            # The builtin sum over the levels' cycles in trace order, as
            # below (Python >= 3.12 compensates it, so order and the
            # summing function both matter for the bytes).
            return float(sum(cols.forward + cols.backward_cycles()))
        return float(sum(lv.cycles for lv in self.levels))

    @property
    def max_depth(self) -> int:
        """Deepest forward level (the BFS depth Algorithm 5 samples)."""
        if self._columns is not None:
            return max(len(self._columns.size) - 1, 0)
        forward = [lv.depth for lv in self.levels if lv.stage == "forward"]
        return max(forward, default=0)

    def forward_levels(self) -> list:
        return [lv for lv in self.levels if lv.stage == "forward"]

    def _forward_series(self, column: str, attr: str, dtype) -> np.ndarray:
        if self._columns is not None:
            values = getattr(self._columns, column)
        else:
            values = [getattr(lv, attr) for lv in self.forward_levels()]
        return np.array(values, dtype=dtype)

    def vertex_frontier_sizes(self) -> np.ndarray:
        """Vertex-frontier series for this root (Figure 3)."""
        return self._forward_series("size", "frontier_size", np.int64)

    def edge_frontier_sizes(self) -> np.ndarray:
        """Edge-frontier series for this root (Table I)."""
        return self._forward_series("edges", "edge_frontier", np.int64)

    def forward_cycles(self) -> np.ndarray:
        """Per-forward-level cycle series (Table I's elapsed times)."""
        return self._forward_series("forward", "cycles", np.float64)

    def strategies_used(self) -> list:
        """Distinct strategies across levels, in first-use order."""
        return list(dict.fromkeys(lv.strategy for lv in self.levels))

    def strategy_by_depth(self) -> dict:
        """``{depth: strategy}`` over the forward sweep — the recorded
        strategy sequence the decision-trace audit is verified against
        (backward levels reuse the forward level's strategy by
        construction, so the forward map is the whole story)."""
        return {int(lv.depth): lv.strategy for lv in self.forward_levels()}


@dataclass
class RunTrace:
    """A whole device run: per-root traces plus schedule outcome."""

    roots: list = field(default_factory=list)  # list[RootTrace]
    makespan_cycles: float = 0.0
    sm_cycles: np.ndarray | None = None  # per-SM busy cycles

    @property
    def total_root_cycles(self) -> float:
        """Sum of per-root costs (ignores scheduling; = serial time)."""
        return float(sum(rt.cycles for rt in self.roots))

    def max_depths(self) -> np.ndarray:
        """Per-root max BFS depths (what Algorithm 5's median inspects)."""
        return np.array([rt.max_depth for rt in self.roots], dtype=np.int64)
