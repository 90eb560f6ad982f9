"""A long-running service costs its live job table and nothing more:
no scipy on the job path (nor on a batching device run), and no per-job
history once a job is done."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from repro.bench.grid import STRATEGY_NAMES
from repro.service import DONE, BCService, JobSpec, read_journal_chain
from tests.service.test_journal import kept_collections

pytestmark = pytest.mark.service

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def job(i: int) -> JobSpec:
    return JobSpec(graph="caidaRouterLevel", scale_factor=256,
                   strategy=STRATEGY_NAMES[i % len(STRATEGY_NAMES)],
                   roots=4, seed=i, tenant=f"t{i % 3}")


def test_service_jobs_import_no_scipy(tmp_path):
    script = textwrap.dedent(f"""
        import json, sys
        from repro.gpusim import Device
        from repro.graph.generators import make_dataset
        from repro.harness.runner import pick_roots
        from repro.service import BCService, JobSpec
        from tests.service.test_footprint import job
        with BCService({str(tmp_path / "svc")!r}) as svc:
            for i in range({len(STRATEGY_NAMES)}):
                svc.submit(job(i))
                svc.run_pending()
            states = sorted({{j.state for j in svc.jobs.values()}})
        g = make_dataset("kron_g500-logn20", 64)
        run = Device().run_bc(g, strategy="batched",
                              roots=pick_roots(g, 16, seed=0), n_samps=8)
        print(json.dumps([states, run.sampling_chose_edge_parallel,
                          sorted(m for m in sys.modules
                                 if m.split(".")[0] == "scipy")]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(REPO, "src"), REPO])
    out = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    states, batched, scipy_modules = json.loads(out.stdout)
    assert states == [DONE]
    assert batched is True  # a real batch ran
    assert scipy_modules == []


def test_rotating_journal_keeps_no_records_in_memory(tmp_path):
    with BCService(tmp_path / "svc", journal_max_segment_bytes=2000,
                   journal_keep_terminal=2) as svc:
        for i in range(60):
            svc.submit(job(i))
            svc.run_pending()
        assert all(j.state == DONE for j in svc.jobs.values())
        assert kept_collections(svc.journal) == []
    records, _ = read_journal_chain(tmp_path / "svc" / "journal.jsonl")
    assert len(records) < 60


def test_finished_jobs_retain_at_most_2kb_each(tmp_path):
    warmup, measured = 300, 600

    def run(svc, jobs):
        for i in jobs:
            svc.submit(job(i))
            svc.run_pending()

    with BCService(tmp_path / "svc") as svc:
        run(svc, range(warmup))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(svc, range(warmup, warmup + measured))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(j.state == DONE for j in svc.jobs.values())
    assert retained / measured <= 2048
