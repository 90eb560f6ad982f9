"""Unit tests for distributed BC (values and performance model)."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.bc.brandes import brandes_reference
from repro.cluster.distributed import (
    partition_roots,
    scaling_sweep,
    simulate_distributed_run,
)
from repro.cluster.topology import ClusterSpec, kids
from repro.errors import ClusterConfigurationError
from repro.graph.generators import watts_strogatz
from repro.gpusim.device import Device
from repro.gpusim.spec import TESLA_M2090
from repro.resilience import FaultyComm, resilient_distributed_bc


class TestPartitionRoots:
    def test_covers_all(self):
        parts = partition_roots(10, 3)
        allr = np.concatenate(parts)
        assert sorted(allr.tolist()) == list(range(10))

    def test_balanced(self):
        parts = partition_roots(100, 7)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_roots(self):
        parts = partition_roots(2, 5)
        assert sum(p.size for p in parts) == 2

    def test_bad_parts(self):
        with pytest.raises(ClusterConfigurationError):
            partition_roots(5, 0)

    def test_negative_roots_rejected(self):
        with pytest.raises(ClusterConfigurationError):
            partition_roots(-1, 3)

    def test_zero_roots_gives_empty_parts(self):
        parts = partition_roots(0, 4)
        assert len(parts) == 4
        assert all(p.size == 0 for p in parts)


class TestValues:
    """The multi-GPU value program is the fault-free resilient driver."""

    @pytest.mark.parametrize("ranks", [1, 2, 3, 7])
    def test_matches_serial(self, fig1, ranks):
        ref = brandes_reference(fig1)
        assert np.allclose(resilient_distributed_bc(fig1, ranks).values, ref)

    def test_matches_on_disconnected(self, two_components, small_sw):
        for g in (two_components, small_sw):
            ref = brandes_reference(g)
            assert np.allclose(resilient_distributed_bc(g, 4).values, ref)

    def test_zero_root_ranks_contribute_zero_vector(self, fig1):
        # More ranks than vertices: the surplus ranks get empty root
        # partitions and must contribute zeros to the reduce rather
        # than being dropped (or corrupting it).
        ref = brandes_reference(fig1)
        assert np.allclose(resilient_distributed_bc(fig1, 12).values, ref)

    def test_comm_mismatch(self, fig1):
        with pytest.raises(ClusterConfigurationError):
            resilient_distributed_bc(fig1, 3, comm=FaultyComm(2))

    def test_comm_charges_time(self, fig1):
        from repro.cluster.interconnect import INFINIBAND_QDR

        comm = FaultyComm(3, link=INFINIBAND_QDR)
        resilient_distributed_bc(fig1, 3, comm=comm)
        assert comm.elapsed_comm_seconds > 0


class TestTopology:
    def test_kids_preset(self):
        c = kids(64)
        assert c.num_nodes == 64
        assert c.gpus_per_node == 3
        assert c.num_gpus == 192
        assert c.gpu == TESLA_M2090

    def test_with_nodes(self):
        c = kids(1).with_nodes(16)
        assert c.num_gpus == 48
        assert c.name == "KIDS"

    def test_validation(self):
        with pytest.raises(ClusterConfigurationError):
            ClusterSpec("x", 0, 3, TESLA_M2090)
        with pytest.raises(ClusterConfigurationError):
            ClusterSpec("x", 1, 0, TESLA_M2090)


class TestPerformanceModel:
    def test_components_positive(self, small_sw):
        run = simulate_distributed_run(small_sw, kids(4), sample_roots=8, seed=0)
        assert run.seconds > 0
        assert run.compute_seconds > 0
        assert run.broadcast_seconds > 0
        assert run.reduce_seconds > 0
        assert run.seconds == pytest.approx(
            run.setup_seconds + run.compute_seconds + run.broadcast_seconds
            + run.reduce_seconds
        )

    def test_more_nodes_less_compute(self, small_sw):
        runs = scaling_sweep(small_sw, kids(1), [1, 2, 4], sample_roots=8,
                             seed=0)
        compute = [r.compute_seconds for r in runs]
        # Strictly better while each GPU still holds multiple roots;
        # beyond that the single-root makespan floor kicks in (a root
        # cannot be split across GPUs), so only non-increase is demanded.
        assert compute[0] > compute[1]
        assert compute[1] >= compute[2]

    def test_single_root_floor(self, small_sw):
        # With more GPUs than roots, compute bottoms out at one root's
        # cost rather than dropping to zero.
        runs = scaling_sweep(small_sw, kids(1), [64, 128], sample_roots=8,
                             seed=0)
        assert runs[0].compute_seconds > 0
        assert runs[0].compute_seconds == pytest.approx(
            runs[1].compute_seconds, rel=0.5
        )

    def test_total_time_improves_then_saturates(self, small_sw):
        runs = scaling_sweep(small_sw, kids(1), [1, 4, 64], sample_roots=8,
                             seed=0)
        secs = [r.seconds for r in runs]
        assert secs[0] >= secs[1] - 1e-9
        # At 64 nodes the fixed setup dominates: within 5% of 4 nodes.
        assert secs[2] <= secs[1] * 1.05

    def test_speedup_bounded_by_gpu_ratio(self, small_sw):
        runs = scaling_sweep(small_sw, kids(1), [1, 8], sample_roots=8, seed=0)
        speedup = runs[0].seconds / runs[1].seconds
        assert 1.0 <= speedup <= 8.0 + 1e-9

    def test_deterministic(self, small_sw):
        a = simulate_distributed_run(small_sw, kids(2), sample_roots=8, seed=3)
        b = simulate_distributed_run(small_sw, kids(2), sample_roots=8, seed=3)
        assert a.seconds == b.seconds

    @pytest.mark.parametrize("nodes, rounds", [(1, 3), (2, 2), (8, 1)])
    def test_equal_roots_list_schedule(self, nodes, rounds):
        # Every root of a ring lattice costs the same c cycles, so each
        # GPU's k roots take ceil(k/S) rounds of c on its S SMs (one
        # block per SM, each pulling the next root), not k*c/S.
        ring = watts_strogatz(100, k=4, p=0.0, seed=0)
        c = Device(TESLA_M2090).run_bc(ring, roots=[0]).trace.roots[0].cycles
        cluster = kids(nodes)
        k = -(-ring.num_vertices // cluster.num_gpus)
        assert -(-k // TESLA_M2090.num_sms) == rounds
        run = simulate_distributed_run(ring, cluster, sample_roots=8, seed=0)
        assert run.compute_seconds == pytest.approx(
            TESLA_M2090.seconds(rounds * c))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep_points_are_standalone_runs(self, small_sw, seed):
        nodes = (1, 4, 16, 64)
        sweep = scaling_sweep(small_sw, kids(1), nodes, sample_roots=8,
                              seed=seed)
        for count, point in zip(nodes, sweep):
            alone = simulate_distributed_run(small_sw, kids(count),
                                             sample_roots=8, seed=seed)
            assert asdict(point) == asdict(alone)

    def test_gteps(self, small_sw):
        run = simulate_distributed_run(small_sw, kids(2), sample_roots=8, seed=0)
        expect = small_sw.num_edges * small_sw.num_vertices / run.seconds
        assert run.teps() == pytest.approx(expect)
        assert run.gteps() == pytest.approx(expect / 1e9)
