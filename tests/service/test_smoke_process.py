"""Out-of-process kill-and-recover smoke (the CI `service` job's body).

Drives the real CLI in a subprocess: spool three jobs (one with an
injected fault), let the daemon finish at least one, ``SIGKILL`` it
mid-run, restart, and assert every job reaches the correct terminal
state with a verifiable cached result.  Marked ``service`` so CI can
select exactly this with ``-m service``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import DONE, read_journal, replay_state, ResultCache

pytestmark = pytest.mark.service

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def cli(*argv, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=REPO, env=env, capture_output=True,
                          text=True, timeout=120, **kw)


def wait_for(predicate, timeout=60, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def journal_kinds(root):
    records, _ = read_journal(os.path.join(root, "journal.jsonl"))
    return [r["kind"] for r in records]


def test_kill_and_recover_end_to_end(tmp_path):
    root = str(tmp_path / "svc")

    # 1. Spool three jobs before any daemon exists (tickets are the
    #    cross-process submission path; no daemon required).
    for i, extra in ((1, []), (2, ["--strategy", "hybrid"]),
                     (3, ["--faults", "fail:0@compute+1"])):
        r = cli("service", "submit", "--root", root,
                "--job-id", f"smoke{i}", "--scale-factor", "256",
                "--roots", "4", "--seed", str(i), *extra)
        assert r.returncode == 0, r.stderr
        assert f"smoke{i}" in r.stdout

    # 2. Start the daemon throttled so the SIGKILL window is wide.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "service", "serve",
         "--root", root, "--throttle", "1.5", "--poll-interval", "0.05"],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        # 3. Wait for the first result, then SIGKILL mid-run: at least
        #    one job is done, at least one is not.
        assert wait_for(lambda: "done" in journal_kinds(root)), \
            "daemon never finished a job"
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)

    kinds = journal_kinds(root)
    assert kinds.count("done") < 3, "SIGKILL landed after all jobs done"

    # 4. Restart; --idle-exit drains the recovered queue then exits 0.
    r = cli("service", "serve", "--root", root, "--idle-exit", "1",
            "--poll-interval", "0.05")
    assert r.returncode == 0, r.stderr

    # 5. Every job is terminal DONE with the chaos job retried, and the
    #    journal replays cleanly (it is the artifact CI uploads).
    records, torn = read_journal(os.path.join(root, "journal.jsonl"))
    assert not torn
    state = replay_state(records)
    assert sorted(state.jobs) == ["smoke1", "smoke2", "smoke3"]
    for job_id, job in state.jobs.items():
        assert job.state == DONE, (job_id, job.state)
    assert state.jobs["smoke3"].attempt >= 2  # injected fault retried

    # 6. Results are in the cache and checksum-verify; the CLI agrees.
    cache = ResultCache(os.path.join(root, "results"))
    for job_id, job in state.jobs.items():
        assert cache.verify(job.result_key), job_id
        r = cli("service", "results", "--root", root, job_id)
        assert r.returncode == 0, r.stderr
    r = cli("service", "status", "--root", root)
    assert r.returncode == 0
    assert r.stdout.count('"done"') >= 3 or r.stdout.count("done") >= 3
