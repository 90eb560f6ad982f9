"""Property-based tests across the simulator, cluster and metrics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import chunk_max_sum
from repro.bc.brandes import brandes_reference
from repro.cluster.distributed import partition_roots
from repro.cluster.mpi_sim import SimComm
from repro.graph.build import from_edges
from repro.gpusim.cost import CostModel
from repro.gpusim.device import Device, _list_schedule
from repro.metrics.correlation import pearson
from repro.resilience import resilient_distributed_bc


@st.composite
def graphs(draw, max_n=14, max_m=30):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m, max_size=m,
        )
    )
    return from_edges(edges, num_vertices=n)


# ----------------------------------------------------------------------
# chunk serialisation model
# ----------------------------------------------------------------------
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=200),
       st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_chunk_max_sum_bounds(weights, chunk):
    w = np.asarray(weights)
    out = chunk_max_sum(w, chunk)
    # Bounded below by both the max element and the perfect-throughput
    # division; bounded above by full serialisation.
    assert out >= w.max()
    assert out * chunk >= w.sum()
    assert out <= w.sum()


@given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
@settings(max_examples=40, deadline=None)
def test_imbalance_never_cheaper_than_mean(weights):
    c = CostModel(cycle_scale=1.0)
    w = np.asarray(weights, dtype=np.int64)
    with_imb = c.we_forward(w, 16)
    without = c.without_imbalance().we_forward(w, 16)
    assert with_imb >= without - 1e-9


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------
@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=0,
                max_size=100),
       st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_list_schedule_bounds(costs, workers):
    makespan, per = _list_schedule(costs, workers)
    total = sum(costs)
    assert makespan >= total / workers - 1e-6
    assert makespan <= total + 1e-6
    assert np.isclose(per.sum(), total)
    if costs:
        assert makespan >= max(costs) - 1e-9


# ----------------------------------------------------------------------
# device strategies all compute the same values
# ----------------------------------------------------------------------
@given(graphs(max_n=10, max_m=20),
       st.sampled_from(["work-efficient", "edge-parallel", "hybrid",
                        "sampling", "gpu-fan"]))
@settings(max_examples=25, deadline=None)
def test_device_strategies_exact(g, strategy):
    run = Device().run_bc(g, strategy=strategy)
    assert np.allclose(run.bc, brandes_reference(g), rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# cluster decomposition
# ----------------------------------------------------------------------
@given(graphs(max_n=12, max_m=24), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_distributed_equals_serial(g, ranks):
    assert np.allclose(resilient_distributed_bc(g, ranks).values,
                       brandes_reference(g), rtol=1e-9, atol=1e-9)


@given(st.integers(0, 500), st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_partition_roots_exact_cover(n, parts):
    out = partition_roots(n, parts)
    assert len(out) == parts
    allr = np.concatenate(out) if out else np.empty(0)
    assert np.array_equal(allr, np.arange(n))
    sizes = [p.size for p in out]
    assert max(sizes) - min(sizes) <= 1


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=10),
       st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_simcomm_reduce_is_sum(values, size):
    arrays = [np.asarray(values, dtype=float) * (r + 1) for r in range(size)]
    out = SimComm(size).reduce(arrays)
    factor = size * (size + 1) / 2
    assert np.allclose(out, np.asarray(values, dtype=float) * factor)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3,
                max_size=50),
       st.floats(0.1, 10.0), st.floats(-100.0, 100.0))
@settings(max_examples=50, deadline=None)
def test_pearson_affine_invariance(xs, a, b):
    x = np.asarray(xs)
    y = a * x + b
    # Skip numerically degenerate series (constant up to rounding, or
    # whose spread underflows in the variance computation).
    if x.std() <= 1e-9 * (np.abs(x).max() + 1.0) or y.std() == 0.0:
        return
    assert abs(pearson(x, y) - 1.0) < 1e-6


# ----------------------------------------------------------------------
# resilience: recovery is exact for arbitrary single fail-stop points
# ----------------------------------------------------------------------
@given(graphs(max_n=10, max_m=20),
       st.integers(2, 5),                 # ranks
       st.integers(0, 4),                 # victim rank (mod ranks)
       st.sampled_from(["compute", "bcast", "reduce", "barrier"]),
       st.integers(0, 3))                 # roots completed before dying
@settings(max_examples=30, deadline=None)
def test_resilient_bc_survives_any_single_fail_stop(g, ranks, victim,
                                                    where, after):
    from repro.resilience import FaultPlan

    plan = FaultPlan.fail_stop(victim % ranks, where=where,
                               after_roots=after)
    run = resilient_distributed_bc(g, ranks, fault_plan=plan)
    assert run.exact
    assert np.allclose(run.values, brandes_reference(g))
