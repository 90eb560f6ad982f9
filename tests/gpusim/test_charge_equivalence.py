"""Array charging equals the per-level charge loop, byte for byte.

:func:`repro.gpusim.charge.charge` decides every level first and then
costs each strategy's levels in one array call.  The reference below is
the per-level loop it replaced, with the per-level kernel formulas it
called, copied verbatim.  Traces (including the Python types of their
fields), decision events and the registry export must all match.

A lockstep group is charged as one block
(:func:`repro.gpusim.charge.charge_rows` of
:meth:`~repro.gpusim.charge.FrontierProfile.of_group`); each of its
rows, recorded at its turn, must be what charging its root alone gives.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc.batched import batched_dependencies
from repro.bc.frontier import forward_sweep, sweep_group
from repro.bc.policies import (
    BATCHED,
    EDGE_PARALLEL,
    GPU_FAN,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    BatchedPolicy,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
)
from repro.errors import StrategyError
from repro.gpusim.charge import (
    EngineSeries,
    FrontierProfile,
    charge,
    charge_rows,
    record_root,
)
from repro.gpusim.cost import CostModel
from repro.gpusim.trace import LevelTrace, RootTrace
from repro.graph.build import from_edges
from repro.observability.clock import SpanClock
from repro.observability.export import dumps
from repro.observability.registry import MetricsRegistry

DEVICE_CHUNK = 64


# -- reference: the per-level kernels and loop -------------------------
def _chunk_max_sum(weights, chunk):
    weights = np.asarray(weights)
    k = weights.size
    if k == 0:
        return 0
    pad = (-k) % chunk
    if pad:
        weights = np.concatenate([weights, np.zeros(pad, dtype=weights.dtype)])
    return int(weights.reshape(-1, chunk).max(axis=1).sum())


class PerLevelKernels:
    def __init__(self, c: CostModel):
        self.c = c

    def _row_cycles(self, degrees):
        c = self.c
        deg = np.asarray(degrees, dtype=np.float64)
        short = np.minimum(deg, c.stream_threshold)
        long = deg - short
        return short * c.edge_scattered + long * c.edge_streamed

    def _serialized(self, row_cycles, chunk):
        row_cycles = np.asarray(row_cycles)
        if row_cycles.size == 0:
            return 0.0
        if self.c.imbalance:
            return float(_chunk_max_sum(row_cycles, chunk))
        return float(row_cycles.sum()) / chunk

    def we_forward(self, frontier_degrees, chunk):
        c = self.c
        fdeg = np.asarray(frontier_degrees)
        f = int(fdeg.size)
        cycles = self._serialized(self._row_cycles(fdeg), chunk)
        cycles += math.ceil(f / chunk) * c.queue_op * 2
        if c.enqueue == "prefix-sum":
            ef = float(fdeg.sum())
            passes = math.log2(max(ef, 2.0))
            cycles += ef / chunk * c.prefix_scan_factor * passes
        elif c.enqueue != "cas":
            raise ValueError(f"unknown enqueue mode {c.enqueue!r}")
        return (cycles + c.launch) * c.cycle_scale

    def we_backward(self, level_degrees, chunk):
        c = self.c
        f = int(np.asarray(level_degrees).size)
        cycles = self._serialized(self._row_cycles(level_degrees), chunk) * 0.8
        cycles += math.ceil(f / chunk) * c.queue_op
        return (cycles + c.launch) * c.cycle_scale

    def ep_forward(self, num_directed_edges, useful_edges, chunk):
        c = self.c
        cycles = math.ceil(num_directed_edges / chunk) * c.edge_coalesced
        cycles += useful_edges / chunk * c.atomic
        return (cycles + c.launch) * c.cycle_scale

    ep_backward = ep_forward

    def vp_forward(self, num_vertices, masked_degrees, chunk):
        c = self.c
        cycles = math.ceil(num_vertices / chunk) * c.vertex_check
        cycles += self._serialized(self._row_cycles(masked_degrees), chunk)
        return (cycles + c.launch) * c.cycle_scale

    def vp_backward(self, num_vertices, masked_degrees, chunk):
        c = self.c
        cycles = math.ceil(num_vertices / chunk) * c.vertex_check
        cycles += self._serialized(self._row_cycles(masked_degrees),
                                   chunk) * 0.8
        return (cycles + c.launch) * c.cycle_scale

    def gpu_fan_forward(self, num_directed_edges, useful_edges, device_chunk):
        c = self.c
        cycles = math.ceil(num_directed_edges / device_chunk) * c.edge_coalesced
        cycles += useful_edges / device_chunk * c.atomic
        cycles += c.launch * c.gpu_fan_sync_multiplier
        return cycles * c.cycle_scale

    gpu_fan_backward = gpu_fan_forward

    def batched_forward(self, edge_pairs, device_chunk):
        c = self.c
        cycles = math.ceil(edge_pairs / device_chunk) * c.edge_coalesced
        return (cycles + c.launch) * c.cycle_scale

    batched_backward = batched_forward


def _add(trace, metrics, lv):
    trace.add(lv)
    metrics.inc("engine.levels", stage=lv.stage, strategy=lv.strategy)
    metrics.inc("engine.frontier_vertices", lv.frontier_size, stage=lv.stage)
    metrics.inc("engine.frontier_edges", lv.edge_frontier, stage=lv.stage)
    metrics.inc("engine.cycles", lv.cycles, stage=lv.stage,
                strategy=lv.strategy)


def per_level_charge(profile, policy, costs, chunk, device_chunk, metrics):
    """The per-level loop: decide, then cost, one level at a time."""
    sizes, edges = list(profile.sizes), list(profile.edges)
    ids = degrees = None
    if profile.ids is not None:
        cuts = np.cumsum(sizes)[:-1]
        ids = np.split(profile.ids, cuts)
        degrees = np.split(profile.degrees, cuts)
    root = profile.root
    trace = RootTrace(root=root)
    decision = policy.initial_decision()
    metrics.record("decision.initial", root=root, applies_to_depth=0,
                   strategy=decision.strategy, policy=decision.policy,
                   rule=decision.rule, **decision.inputs)
    strategy = decision.strategy
    kernels = {WORK_EFFICIENT: (costs.we_forward, costs.we_backward),
               EDGE_PARALLEL: (costs.ep_forward, costs.ep_backward),
               VERTEX_PARALLEL: (costs.vp_forward, costs.vp_backward),
               GPU_FAN: (costs.gpu_fan_forward, costs.gpu_fan_backward),
               BATCHED: (costs.batched_forward, costs.batched_backward)}
    n, m = profile.num_vertices, profile.num_directed_edges
    mask = None
    last = len(sizes) - 1
    backward = []
    for depth, (size, ef) in enumerate(zip(sizes, edges)):
        if strategy not in kernels:
            raise StrategyError(f"unknown strategy {strategy!r}")
        if strategy == WORK_EFFICIENT:
            args = (degrees[depth], chunk)
        elif strategy == EDGE_PARALLEL:
            args = (m, ef, chunk)
        elif strategy == VERTEX_PARALLEL:
            if mask is None:
                mask = np.zeros(n, dtype=np.int64)
            mask[ids[depth]] = degrees[depth]
            args = (n, mask, chunk)
        elif device_chunk is None:
            raise StrategyError(f"{strategy} strategy requires device_chunk")
        else:
            args = ((m, ef, device_chunk) if strategy == GPU_FAN
                    else (ef, device_chunk))
        fwd_kernel, bwd_kernel = kernels[strategy]
        _add(trace, metrics, LevelTrace(depth, "forward", strategy, size, ef,
                                        fwd_kernel(*args)))
        metrics.observe("engine.frontier_size", size, stage="forward")
        if 0 < depth < last:
            backward.append(LevelTrace(depth, "backward", strategy, size, ef,
                                       bwd_kernel(*args)))
        if strategy == VERTEX_PARALLEL:
            mask[ids[depth]] = 0
        q_next = sizes[depth + 1] if depth < last else 0
        decision = policy.decide(strategy, size, q_next)
        if q_next > 0:
            metrics.record("decision.step", root=root, depth=depth,
                           applies_to_depth=depth + 1, previous=strategy,
                           strategy=decision.strategy,
                           policy=decision.policy, rule=decision.rule,
                           **decision.inputs)
        strategy = decision.strategy
    for lv in reversed(backward):
        _add(trace, metrics, lv)
    return trace


# -- the comparison ----------------------------------------------------
COSTS = {
    "default": CostModel(),
    "no-imbalance": CostModel(imbalance=False),
    "prefix-sum": CostModel(enqueue="prefix-sum"),
    "short-stream": CostModel(stream_threshold=3, cycle_scale=1.0),
}

POLICIES = {
    "work-efficient": lambda: FixedPolicy(WORK_EFFICIENT),
    "edge-parallel": lambda: FixedPolicy(EDGE_PARALLEL),
    "vertex-parallel": lambda: FixedPolicy(VERTEX_PARALLEL),
    "gpu-fan": lambda: FixedPolicy(GPU_FAN),
    "hybrid": lambda: HybridPolicy(alpha=1, beta=2),
    "guard": lambda: FrontierGuardPolicy(min_frontier=3),
}


def _registry():
    return MetricsRegistry(clock=SpanClock(wall=lambda: 0.0))


def assert_same_charge(profiles, policy, costs, chunk,
                       device_chunk=DEVICE_CHUNK):
    """Charge ``profiles`` in sequence on one registry each way."""
    ref_reg, new_reg = _registry(), _registry()
    reference = PerLevelKernels(costs)
    for profile in profiles:
        want = per_level_charge(profile, policy(), reference, chunk,
                                device_chunk, ref_reg)
        got = charge(profile, policy(), costs, chunk,
                     device_chunk=device_chunk, metrics=new_reg)
        assert got.root == want.root
        assert repr(got.levels) == repr(want.levels)
    assert new_reg.events == ref_reg.events
    assert dumps(new_reg.export()) == dumps(ref_reg.export())


@st.composite
def graphs(draw, max_n=70, max_m=160):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=max_m))
    directed = draw(st.booleans())
    return from_edges(edges, num_vertices=n, undirected=not directed)


def _profiles(g, roots):
    return [FrontierProfile.of_sweep(g, forward_sweep(g, r)) for r in roots]


@given(graphs(), st.sampled_from(sorted(COSTS)),
       st.sampled_from(sorted(POLICIES)), st.sampled_from([4, 7, 256]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_per_root_charge(g, costs, policy, chunk, data):
    roots = data.draw(st.lists(st.integers(0, g.num_vertices - 1),
                               min_size=1, max_size=3))
    assert_same_charge(_profiles(g, roots), POLICIES[policy], COSTS[costs],
                       chunk)


@given(graphs(), st.sampled_from(sorted(COSTS)), st.data())
@settings(max_examples=40, deadline=None)
def test_batched_charge(g, costs, data):
    roots = data.draw(st.lists(st.integers(0, g.num_vertices - 1),
                               min_size=1, max_size=4, unique=True))
    sizes, edges = [], []
    batched_dependencies(g, np.array(roots), on_level=lambda depth, pairs,
                         epairs: (sizes.append(pairs), edges.append(epairs)))
    profile = FrontierProfile(root=roots[0], sizes=sizes, edges=edges)
    assert_same_charge([profile], lambda: BatchedPolicy(len(roots), 2.0, 4),
                       COSTS[costs], 256)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_zero_depth_profile(policy):
    """A traversal with no levels costs nothing and, as in the
    level-by-level loop, creates no ``engine.*`` series."""
    assert_same_charge([FrontierProfile(root=3, sizes=[], edges=[])],
                       POLICIES[policy], CostModel(), 4)


def _star_chain(blocks=6, width=40):
    """Hubs joined by fans of leaves: wide, unevenly loaded levels, so
    levels span many chunks and hybrid switches both ways."""
    edges, hub = [], 0
    nxt = 1
    for _ in range(blocks):
        leaves = list(range(nxt, nxt + width))
        nxt += width
        edges.extend((hub, leaf) for leaf in leaves)
        edges.extend((leaf, nxt) for leaf in leaves[: width // 3])
        hub = nxt
        nxt += 1
    return from_edges(edges)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("costs", sorted(COSTS))
def test_wide_levels_many_chunks(policy, costs):
    g = _star_chain()
    assert_same_charge(_profiles(g, [0, 1, 41]), POLICIES[policy],
                       COSTS[costs], 4)


def test_hybrid_switches_in_the_cases_above():
    g = _star_chain()
    trace = charge(FrontierProfile.of_sweep(g, forward_sweep(g, 0)),
                   HybridPolicy(alpha=1, beta=2), CostModel(), 4)
    assert set(trace.strategy_by_depth().values()) == {WORK_EFFICIENT,
                                                        EDGE_PARALLEL}


@pytest.mark.parametrize("strategy", [GPU_FAN, BATCHED])
def test_device_chunk_required(strategy):
    g = _star_chain(blocks=1)
    profile = FrontierProfile.of_sweep(g, forward_sweep(g, 0))
    policy = (FixedPolicy(GPU_FAN) if strategy == GPU_FAN
              else BatchedPolicy(1, 2.0, 4))
    with pytest.raises(StrategyError, match="device_chunk"):
        charge(profile, policy, CostModel(), 256)
    with pytest.raises(StrategyError, match="device_chunk"):
        per_level_charge(profile, policy, PerLevelKernels(CostModel()), 256,
                         None, _registry())


# -- a lockstep group charged as one block -----------------------------
def _types(values):
    return [type(v) for v in values]


def assert_block_is_per_root(g, roots, policy, costs, chunk):
    """Charge ``roots`` as one lockstep block and record each row at
    its turn; compare with charging each root alone, on one registry
    each way."""
    grp = sweep_group(g, roots)
    block = charge_rows(FrontierProfile.of_group(g, grp), policy(), costs,
                        chunk, device_chunk=DEVICE_CHUNK)
    assert block.roots == list(roots)
    assert len(block.offsets) == len(roots) + 1
    block_reg, alone_reg = _registry(), _registry()
    series = EngineSeries(block_reg)
    for r, root in enumerate(roots):
        alone = FrontierProfile.of_sweep(g, forward_sweep(g, root))
        want = charge_rows(alone, policy(), costs, chunk,
                           device_chunk=DEVICE_CHUNK)
        got = block.row(r)
        assert got == want
        assert [_types(col) for col in got] == [_types(col) for col in want]
        trace = record_root(got, policy(), series)
        ref = charge(alone, policy(), costs, chunk,
                     device_chunk=DEVICE_CHUNK, metrics=alone_reg)
        assert trace.cycles == ref.cycles
        assert trace == ref and repr(trace) == repr(ref)
        assert ([_types(dataclasses.astuple(lv)) for lv in trace.levels]
                == [_types(dataclasses.astuple(lv)) for lv in ref.levels])
    assert block_reg.events == alone_reg.events
    assert dumps(block_reg.export()) == dumps(alone_reg.export())


@st.composite
def groups(draw):
    """A graph whose last vertex is isolated (a depth-0 row when it is
    drawn as a root) and 1-8 roots, duplicates allowed."""
    n = draw(st.integers(min_value=2, max_value=40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=100))
    g = from_edges(edges, num_vertices=n + 1,
                   undirected=not draw(st.booleans()))
    roots = draw(st.lists(st.integers(0, n), min_size=1, max_size=8))
    return g, roots


def _hybrid(alpha, beta):
    return lambda: HybridPolicy(alpha=alpha, beta=beta)


def _guard(min_frontier):
    return lambda: FrontierGuardPolicy(min_frontier=min_frontier)


#: Every non-batched policy, plus drawn thresholds low enough that
#: hybrid switches mid-row and across row boundaries, and that the
#: guard would fire at a root's first level (a frontier of one).
POLICY_FACTORIES = st.one_of(
    st.sampled_from(sorted(POLICIES)).map(POLICIES.get),
    st.builds(_hybrid, st.integers(0, 4), st.integers(0, 6)),
    st.builds(_guard, st.integers(0, 3)))


@given(groups(), st.sampled_from(sorted(COSTS)), POLICY_FACTORIES,
       st.sampled_from([2, 5, 256]))
@settings(max_examples=100, deadline=None)
def test_group_block_is_per_root_charge(group, costs, policy, chunk):
    g, roots = group
    assert_block_is_per_root(g, roots, policy, COSTS[costs], chunk)


def _star_path_isolated():
    """A 10-leaf star (hub 0), a path 11-14 and an isolated vertex 15."""
    edges = [(0, leaf) for leaf in range(1, 11)]
    edges += [(11, 12), (12, 13), (13, 14)]
    return from_edges(edges, num_vertices=16)


@pytest.mark.parametrize("alpha,beta", [(1, 0), (1, 2), (0, 0), (9, 0)])
def test_hybrid_switch_stays_in_its_row(alpha, beta):
    """The hub's row switches to edge-parallel at its step 0, and the
    next row starts after a frontier drop of 9: neither switch reaches
    the path's row, the isolated root or the repeated hub."""
    g = _star_path_isolated()
    roots = [0, 11, 15, 0, 11]
    assert_block_is_per_root(g, roots, _hybrid(alpha, beta), CostModel(), 4)
    block = charge_rows(FrontierProfile.of_group(g, sweep_group(g, roots)),
                        HybridPolicy(alpha=alpha, beta=beta), CostModel(), 4)
    switched = [EDGE_PARALLEL in block.row(r).strategy
                for r in range(len(roots))]
    assert switched == [alpha < 9, False, False, alpha < 9, False]


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_group_block_over_many_chunks(policy):
    g = _star_chain()
    assert_block_is_per_root(g, [0, 41, 1, 0, 200], POLICIES[policy],
                             CostModel(), 4)
