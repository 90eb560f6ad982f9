"""Unit tests for the process-pool BC executor."""

import numpy as np
import pytest

from repro.bc.brandes import brandes_reference
from repro.observability import MetricsRegistry
from repro.parallel import pool as pool_module
from repro.parallel.pool import parallel_betweenness_centrality


class TestPool:
    def test_matches_serial_two_workers(self, fig1):
        got = parallel_betweenness_centrality(fig1, num_workers=2,
                                              chunks_per_worker=2)
        assert np.allclose(got, brandes_reference(fig1))

    def test_single_worker_short_circuit(self, fig1):
        got = parallel_betweenness_centrality(fig1, num_workers=1)
        assert np.allclose(got, brandes_reference(fig1))

    def test_sources_subset(self, fig1):
        got = parallel_betweenness_centrality(fig1, sources=[0, 3, 5],
                                              num_workers=2)
        assert np.allclose(got, brandes_reference(fig1, sources=[0, 3, 5]))

    def test_more_workers_than_roots(self, path5):
        got = parallel_betweenness_centrality(path5, num_workers=8,
                                              chunks_per_worker=4)
        assert np.allclose(got, brandes_reference(path5))

    def test_larger_graph(self, small_sw):
        got = parallel_betweenness_centrality(
            small_sw, sources=range(0, 40), num_workers=2,
        )
        ref = brandes_reference(small_sw, sources=range(0, 40))
        assert np.allclose(got, ref)

    @pytest.mark.parametrize("bad", [100, -1])
    def test_bad_root_rejected_before_the_pool_starts(self, fig1, bad,
                                                      monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        metrics = MetricsRegistry()
        with pytest.raises(IndexError, match="out of range"):
            parallel_betweenness_centrality(fig1, sources=[0, bad],
                                            num_workers=2, metrics=metrics)
        assert not any(c.name == "pool.chunks" for c in metrics.counters())

    def test_bad_chunks(self, fig1):
        with pytest.raises(ValueError):
            parallel_betweenness_centrality(fig1, num_workers=2,
                                            chunks_per_worker=0)


@pytest.mark.faults
class TestWorkerCrashRecovery:
    """A crashed pool worker must never lose the run: failed chunks are
    recomputed serially and the result stays exact."""

    def test_one_crashed_chunk_recovered(self, fig1):
        got = parallel_betweenness_centrality(
            fig1, num_workers=2, chunks_per_worker=2, _crash_chunks=(0,)
        )
        assert np.allclose(got, brandes_reference(fig1))

    def test_all_chunks_crashed_recovered(self, fig1):
        got = parallel_betweenness_centrality(
            fig1, num_workers=2, chunks_per_worker=2,
            _crash_chunks=tuple(range(8)),
        )
        assert np.allclose(got, brandes_reference(fig1))

    def test_recovery_is_metered(self, fig1):
        """Satellite contract: serial recovery must be observable — a
        `pool.recomputed_chunks` counter and a timed `pool.recompute`
        span sized by how many chunks fell back."""
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        parallel_betweenness_centrality(
            fig1, num_workers=2, chunks_per_worker=2,
            _crash_chunks=(0, 1), metrics=metrics,
        )
        recomputed = [c for c in metrics.counters()
                      if c.name == "pool.recomputed_chunks"]
        # A dead worker can take the whole pool (and so every chunk)
        # with it; the counter tracks however many actually fell back.
        assert recomputed and recomputed[0].value >= 2
        assert recomputed[0].labels == {"path": "serial"}

        def walk(spans):
            for sp in spans:
                yield sp
                yield from walk(sp.children)

        recompute = [sp for sp in walk(metrics.root_spans)
                     if sp.name == "pool.recompute"]
        assert len(recompute) == 1
        assert recompute[0].labels == {"chunks": int(recomputed[0].value)}
        assert recompute[0].end is not None

    def test_crash_with_source_subset(self, small_sw):
        got = parallel_betweenness_centrality(
            small_sw, sources=range(0, 30), num_workers=2,
            _crash_chunks=(1,),
        )
        ref = brandes_reference(small_sw, sources=range(0, 30))
        assert np.allclose(got, ref)

    def test_no_bare_pool_exception_leaks(self, fig1):
        # Even with every worker dying, the caller sees a clean result
        # (or, if serial recovery also failed, a ReproError — never a
        # raw BrokenProcessPool).
        from repro.errors import ReproError

        try:
            got = parallel_betweenness_centrality(
                fig1, num_workers=2, chunks_per_worker=4,
                _crash_chunks=tuple(range(16)),
            )
        except Exception as exc:  # noqa: BLE001 - the assertion IS the test
            assert isinstance(exc, ReproError)
        else:
            assert np.allclose(got, brandes_reference(fig1))
