"""Unit + property tests for the fault-tolerant distributed driver."""

import numpy as np
import pytest

from repro._util import backoff_delay
from repro.bc.api import betweenness_centrality
from repro.errors import ClusterConfigurationError, RetryExhaustedError
from repro.resilience import (
    CheckpointStore,
    FaultEvent,
    FaultPlan,
    FaultyComm,
    resilient_distributed_bc,
)

pytestmark = pytest.mark.faults


class TestFaultFree:
    @pytest.mark.parametrize("ranks", [1, 2, 5])
    def test_matches_serial(self, fig1, ranks):
        run = resilient_distributed_bc(fig1, ranks)
        assert run.exact
        assert not run.degraded
        assert run.retries == 0
        assert run.incidents == []
        assert np.allclose(run.values, betweenness_centrality(fig1))

    def test_more_ranks_than_roots(self, fig1):
        # Zero-root ranks contribute zero vectors, not corruption.
        run = resilient_distributed_bc(fig1, 13)
        assert run.exact
        assert np.allclose(run.values, betweenness_centrality(fig1))

    def test_validation(self, fig1):
        with pytest.raises(ClusterConfigurationError):
            resilient_distributed_bc(fig1, 0)
        with pytest.raises(ClusterConfigurationError):
            resilient_distributed_bc(fig1, 2, max_retries=-1)
        with pytest.raises(ClusterConfigurationError):
            resilient_distributed_bc(fig1, 3, comm=FaultyComm(2))


class TestSingleFailurePoints:
    """The acceptance property: for EVERY single fail-stop point —
    any rank, at any collective or mid-compute — the recovered result
    is allclose to serial BC and the report records the recovery."""

    def test_every_single_rank_failure_point(self, small_sw):
        g = small_sw
        ref = betweenness_centrality(g)
        ranks = 4
        sites = ([("bcast", 0), ("reduce", 0)]
                 + [("compute", after) for after in (0, 1, 5)])
        for rank in range(ranks):
            for where, after in sites:
                plan = FaultPlan.fail_stop(rank, where=where, after_roots=after)
                run = resilient_distributed_bc(g, ranks, fault_plan=plan)
                label = f"rank {rank} at {where}+{after}"
                assert run.exact, label
                assert np.allclose(run.values, ref), label
                assert len(run.incidents) == 1, label
                assert run.incidents[0].rank == rank
                assert run.survivors == ranks - 1, label

    def test_compute_failure_triggers_retry_accounting(self, fig1):
        plan = FaultPlan.fail_stop(0, where="compute", after_roots=1)
        run = resilient_distributed_bc(fig1, 3, fault_plan=plan)
        assert run.retries >= 1
        assert run.recomputed_roots > 0
        assert run.backoff_seconds > 0

    def test_reduce_failure_keeps_checkpointed_partial(self, fig1):
        # A rank dying at the reduce loses nothing: no recompute needed.
        plan = FaultPlan.fail_stop(2, where="reduce")
        run = resilient_distributed_bc(fig1, 3, fault_plan=plan)
        assert run.exact
        assert run.retries == 0
        assert run.recomputed_roots == 0
        assert np.allclose(run.values, betweenness_centrality(fig1))


class TestTransientAndMultiFault:
    def test_transient_oom_recovers(self, small_sw):
        plan = FaultPlan.transient_oom(0, times=2)
        run = resilient_distributed_bc(small_sw, 3, fault_plan=plan)
        assert run.exact
        assert run.retries == 2
        assert [i.kind for i in run.incidents] == ["oom", "oom"]
        assert np.allclose(run.values, betweenness_centrality(small_sw))

    def test_two_rank_deaths(self, small_sw):
        plan = FaultPlan((
            FaultEvent("fail-stop", 0, where="compute", after_roots=2),
            FaultEvent("fail-stop", 3, where="reduce"),
        ))
        run = resilient_distributed_bc(small_sw, 4, fault_plan=plan)
        assert run.exact
        assert run.survivors == 2
        assert np.allclose(run.values, betweenness_centrality(small_sw))

    def test_straggler_exact_but_slower(self, fig1):
        plan = FaultPlan.straggler(1, factor=8.0)
        slow = resilient_distributed_bc(fig1, 3, fault_plan=plan,
                                        per_root_seconds=1e-3)
        fast = resilient_distributed_bc(fig1, 3, per_root_seconds=1e-3)
        assert slow.exact
        assert np.allclose(slow.values, fast.values)
        assert slow.compute_seconds > fast.compute_seconds

    def test_random_plans_recover_or_flag(self, fig1):
        ref = betweenness_centrality(fig1)
        for seed in range(6):
            plan = FaultPlan.random(3, seed=seed, num_faults=2)
            run = resilient_distributed_bc(fig1, 3, fault_plan=plan,
                                           max_retries=4)
            assert np.all(np.isfinite(run.values))
            if run.exact:
                assert np.allclose(run.values, ref), f"seed {seed}"
            else:
                assert run.degraded_roots > 0


class TestGracefulDegradation:
    def test_retries_exhausted_degrades_not_raises(self, small_sw):
        plan = FaultPlan.transient_oom(0, times=10)
        run = resilient_distributed_bc(small_sw, 1, fault_plan=plan,
                                       max_retries=2, seed=5)
        assert not run.exact
        assert run.degraded
        assert run.degraded_roots == small_sw.num_vertices
        assert run.degrade_samples_used > 0
        assert np.all(np.isfinite(run.values))
        assert np.all(run.values >= 0)

    def test_strict_mode_raises(self, fig1):
        plan = FaultPlan.transient_oom(0, times=10)
        with pytest.raises(RetryExhaustedError):
            resilient_distributed_bc(fig1, 1, fault_plan=plan,
                                     max_retries=1, degrade=False)

    def test_all_ranks_dead_degrades(self, fig1):
        plan = FaultPlan(tuple(
            FaultEvent("fail-stop", r, where="compute") for r in range(2)
        ))
        run = resilient_distributed_bc(fig1, 2, fault_plan=plan,
                                       max_retries=5)
        assert run.survivors == 0
        assert not run.exact
        assert run.degraded_roots == fig1.num_vertices

    def test_zero_budget_degrades_immediately(self, fig1):
        run = resilient_distributed_bc(fig1, 2, wall_clock_budget=0.0)
        assert run.degraded
        assert run.completed_roots == 0

    def test_degraded_estimate_tracks_truth(self, small_sw):
        # With a generous sample the degraded estimate should correlate
        # strongly with the exact scores (Brandes-Pich estimator).
        plan = FaultPlan.transient_oom(0, times=10)
        run = resilient_distributed_bc(small_sw, 1, fault_plan=plan,
                                       max_retries=0, degrade_samples=60,
                                       seed=2)
        ref = betweenness_centrality(small_sw)
        corr = np.corrcoef(run.values, ref)[0, 1]
        assert corr > 0.8

    def test_exhausted_keeps_completed_work(self, small_sw):
        # Rank 1 OOMs on every attempt; rank 0 keeps absorbing half of
        # the orphans each round.  When retries run out, everything
        # rank 0 completed must survive in the result and only rank 1's
        # final share is degraded.
        plan = FaultPlan((FaultEvent("oom", 1, times=10),))
        run = resilient_distributed_bc(small_sw, 2, fault_plan=plan,
                                       max_retries=2)
        assert not run.exact
        assert run.completed_roots > 0
        assert run.degraded_roots > 0
        assert run.completed_roots + run.degraded_roots == small_sw.num_vertices


class TestReportAndCosting:
    def test_backoff_grows_exponentially(self, fig1):
        plan = FaultPlan.transient_oom(0, times=3)
        run = resilient_distributed_bc(fig1, 2, fault_plan=plan,
                                       backoff_base=0.1)
        # The service's retry policy: base 0.1 doubling per attempt,
        # each pause jittered into [raw/2, raw) from the run's seed.
        pauses = [backoff_delay(k, base=0.1, seed=0) for k in (1, 2, 3)]
        assert all(raw / 2 <= p < raw
                   for raw, p in zip((0.1, 0.2, 0.4), pauses))
        assert run.backoff_seconds == pytest.approx(sum(pauses))

    def test_recovery_seconds_charged(self, fig1):
        plan = FaultPlan.fail_stop(0, where="compute")
        run = resilient_distributed_bc(fig1, 2, fault_plan=plan,
                                       per_root_seconds=0.01)
        assert run.recovery_seconds > run.backoff_seconds

    def test_summary_mentions_incidents(self, fig1):
        plan = FaultPlan.fail_stop(1, where="reduce")
        run = resilient_distributed_bc(fig1, 3, fault_plan=plan)
        text = run.summary()
        assert "fail-stop" in text
        assert "EXACT" in text


class TestUnifiedClock:
    """Regression: the budget check and the report read one SpanClock.

    The old driver kept a bespoke ``sim_clock`` and a separately summed
    ``recovery_seconds``; recomputed work and backoff pauses were
    charged into both, so the summary's components exceeded the elapsed
    time the budget check saw.  These invariants pin the fix.
    """

    def test_components_sum_to_sim_and_elapsed(self, small_sw):
        plan = FaultPlan.fail_stop(0, where="compute", after_roots=1)
        run = resilient_distributed_bc(small_sw, 3, fault_plan=plan,
                                       per_root_seconds=1e-3)
        assert run.sim_seconds == pytest.approx(
            run.compute_seconds + run.backoff_seconds + run.degrade_seconds)
        assert run.elapsed_seconds == pytest.approx(
            run.wall_seconds + run.sim_seconds)
        # recovery is an attribution overlay, never an extra charge.
        assert run.recovery_seconds <= run.sim_seconds + 1e-12

    def test_degrade_charged_as_its_own_component(self, small_sw):
        plan = FaultPlan.transient_oom(0, times=10)
        run = resilient_distributed_bc(small_sw, 1, fault_plan=plan,
                                       max_retries=1, per_root_seconds=1e-3)
        assert run.degraded
        assert run.degrade_seconds > 0
        assert run.sim_seconds == pytest.approx(
            run.compute_seconds + run.backoff_seconds + run.degrade_seconds)

    def test_budget_and_report_share_the_clock(self, fig1):
        from repro.observability import SpanClock

        clock = SpanClock(wall=lambda: 0.0)  # no real wall time passes
        run = resilient_distributed_bc(fig1, 2, per_root_seconds=1e-3,
                                       clock=clock)
        # With a frozen wall, elapsed is exactly the charged sim time,
        # and the report equals what the clock accumulated.
        assert run.wall_seconds == 0.0
        assert run.elapsed_seconds == pytest.approx(run.sim_seconds)
        assert run.sim_seconds == pytest.approx(clock.sim_seconds)
        assert clock.component_seconds("compute") == pytest.approx(
            run.compute_seconds)

    def test_budget_measured_against_charges(self, fig1):
        # Simulated charges alone must exhaust the budget: round 1's
        # charged compute exceeds it, so the recovery round after the
        # fault is abandoned even though almost no real time passes —
        # the budget check reads the same combined clock as the report.
        plan = FaultPlan.transient_oom(0, times=1)
        full = resilient_distributed_bc(fig1, 2, fault_plan=plan,
                                        per_root_seconds=1e-2)
        assert full.exact  # recovery fits when unconstrained
        run = resilient_distributed_bc(fig1, 2, fault_plan=plan,
                                       per_root_seconds=1e-2,
                                       wall_clock_budget=1e-2)
        assert run.degraded
        assert run.degraded_roots > 0

    def test_metrics_registry_records_incidents(self, fig1):
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        plan = FaultPlan.transient_oom(0, times=2)
        run = resilient_distributed_bc(fig1, 2, fault_plan=plan,
                                       metrics=metrics)
        assert run.exact
        assert metrics.counter("resilience.incidents", kind="oom",
                               where="compute").value == 2
        assert metrics.counter("resilience.retries").value == run.retries
        comm_ops = {c.labels["op"] for c in metrics.counters()
                    if c.name == "comm.calls"}
        assert "bcast" in comm_ops and "reduce" in comm_ops


class TestCheckpointStore:
    def test_accumulates_and_pads(self):
        store = CheckpointStore(3, 4)
        store.commit(1, np.array([0, 1]), np.ones(4))
        store.commit(1, np.array([2]), np.ones(4))
        vals = store.per_rank_values()
        assert len(vals) == 3
        assert np.allclose(vals[1], 2.0)
        assert np.allclose(vals[0], 0.0)  # zero-unit rank -> zero vector
        assert store.completed_roots == 3
        assert store.units == 2
