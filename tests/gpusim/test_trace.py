"""Unit tests for trace containers."""

import numpy as np
import pytest

from repro.bc.frontier import forward_sweep
from repro.bc.policies import (
    EDGE_PARALLEL,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
)
from repro.gpusim.charge import FrontierProfile, charge
from repro.gpusim.cost import CostModel
from repro.gpusim.trace import LevelTrace, RootTrace, RunTrace
from repro.graph.build import from_edges


def _lv(depth, stage, strategy="work-efficient", f=1, ef=2, cycles=10.0):
    return LevelTrace(depth=depth, stage=stage, strategy=strategy,
                      frontier_size=f, edge_frontier=ef, cycles=cycles)


class TestRootTrace:
    def test_cycles_sum(self):
        rt = RootTrace(root=0)
        rt.add(_lv(0, "forward", cycles=5))
        rt.add(_lv(1, "forward", cycles=7))
        rt.add(_lv(1, "backward", cycles=3))
        assert rt.cycles == 15

    def test_max_depth_forward_only(self):
        rt = RootTrace(root=0)
        rt.add(_lv(0, "forward"))
        rt.add(_lv(1, "forward"))
        rt.add(_lv(1, "backward"))
        assert rt.max_depth == 1

    def test_empty(self):
        rt = RootTrace(root=0)
        assert rt.max_depth == 0 and rt.cycles == 0

    def test_series(self):
        rt = RootTrace(root=0)
        rt.add(_lv(0, "forward", f=1, ef=3, cycles=4))
        rt.add(_lv(1, "forward", f=5, ef=9, cycles=8))
        rt.add(_lv(1, "backward", f=5, ef=9, cycles=2))
        assert rt.vertex_frontier_sizes().tolist() == [1, 5]
        assert rt.edge_frontier_sizes().tolist() == [3, 9]
        assert rt.forward_cycles().tolist() == [4, 8]

    def test_strategies_used_dedup(self):
        rt = RootTrace(root=0)
        rt.add(_lv(0, "forward", strategy="work-efficient"))
        rt.add(_lv(1, "forward", strategy="edge-parallel"))
        rt.add(_lv(2, "forward", strategy="work-efficient"))
        assert rt.strategies_used() == ["work-efficient", "edge-parallel"]


class TestRunTrace:
    def test_totals(self):
        run = RunTrace()
        for i in range(3):
            rt = RootTrace(root=i)
            rt.add(_lv(0, "forward", cycles=10))
            run.roots.append(rt)
        assert run.total_root_cycles == 30
        assert run.max_depths().tolist() == [0, 0, 0]


class TestColumnarRootTrace:
    """A trace built from columns reads like the eager list of levels."""

    @staticmethod
    def _charged(policy):
        # Hubs joined by fans of leaves: wide uneven levels, so hybrid
        # switches both ways; plus an isolated vertex (a one-level root).
        edges, hub, nxt = [], 0, 1
        for _ in range(4):
            leaves = list(range(nxt, nxt + 30))
            nxt += 30
            edges += [(hub, leaf) for leaf in leaves]
            edges += [(leaf, nxt) for leaf in leaves[:10]]
            hub = nxt
            nxt += 1
        g = from_edges(edges, num_vertices=nxt + 1)
        policy = {"hybrid": HybridPolicy(alpha=1, beta=2),
                  "guard": FrontierGuardPolicy(min_frontier=3),
                  "fixed": FixedPolicy(EDGE_PARALLEL)}[policy]
        return [charge(FrontierProfile.of_sweep(g, forward_sweep(g, r)),
                       policy, CostModel(), 4)
                for r in (0, 1, 31, nxt)]

    @staticmethod
    def _reads(rt):
        return (rt.cycles, rt.max_depth, rt.vertex_frontier_sizes().tolist(),
                rt.edge_frontier_sizes().tolist(),
                rt.forward_cycles().tolist(), rt.strategy_by_depth(),
                rt.strategies_used())

    @pytest.mark.parametrize("policy", ["hybrid", "guard", "fixed"])
    def test_lazy_equals_eager(self, policy):
        lazy_traces = self._charged(policy)
        for lazy, built in zip(lazy_traces, self._charged(policy)):
            eager = RootTrace(root=built.root, levels=list(built.levels))
            # Read from the columns first, then from the built levels.
            assert self._reads(lazy) == self._reads(eager)
            assert repr(lazy) == repr(eager)
            assert lazy == eager
            assert self._reads(lazy) == self._reads(eager)
            assert [type(getattr(lv, f)) for lv in lazy.levels
                    for f in ("depth", "frontier_size", "edge_frontier",
                              "cycles", "strategy")] == \
                [t for _ in lazy.levels
                 for t in (int, int, int, float, str)]
        assert {s for rt in lazy_traces
                for s in rt.strategies_used()} >= (
            {"work-efficient", "edge-parallel"} if policy != "fixed"
            else {"edge-parallel"})

    @pytest.mark.parametrize("policy", ["hybrid", "guard", "fixed"])
    def test_cycles_computed_once(self, policy):
        for rt in self._charged(policy):
            cycles = rt.cycles
            assert rt.cycles is cycles  # kept, not re-summed per read
            # The builtin sum of the levels' cycles, in trace order.
            assert cycles == float(sum(lv.cycles for lv in rt.levels))
            rt.add(_lv(rt.max_depth + 1, "forward", cycles=5.0))
            assert rt.cycles == float(sum(lv.cycles for lv in rt.levels))

    def test_add_after_columns(self):
        (rt, *_) = self._charged("hybrid")
        depth = rt.max_depth
        rt.add(_lv(depth + 1, "forward", cycles=5.0))
        assert rt.max_depth == depth + 1
        assert rt.levels[-1].cycles == 5.0
