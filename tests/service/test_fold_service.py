"""Service-layer fold semantics: cache identity and crash recovery.

A folded job and its unfolded twin compute the *same values* but are
*distinct cache artifacts*: the result key mixes in the fold digest, so
a change to the preprocess can never serve bytes computed under a
different reduction.  And a folded job's journal replay must land on
values that verify against a from-scratch unfolded recompute.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.graph.generators import make_dataset
from repro.gpusim import Device
from repro.observability import MetricsRegistry
from repro.service import DONE, BCService, JobSpec, result_key

pytestmark = pytest.mark.fold


def spec(i, fold=True, **kw):
    kw.setdefault("graph", "luxembourg.osm")   # road: pendant-heavy
    kw.setdefault("scale_factor", 512)
    kw.setdefault("strategy", "sampling")
    kw.setdefault("roots", 4)
    kw.setdefault("seed", 7)
    return JobSpec(job_id=f"j{i:06d}", fold=fold, **kw)


def test_result_key_mixes_in_fold_digest():
    base = result_key("g" * 64, "sampling", [0, 1], 0)
    folded = result_key("g" * 64, "sampling", [0, 1], 0,
                        fold_digest="f" * 64)
    assert base != folded
    assert folded == result_key("g" * 64, "sampling", [0, 1], 0,
                                fold_digest="f" * 64)
    assert folded != result_key("g" * 64, "sampling", [0, 1], 0,
                                fold_digest="e" * 64)


def test_fold_toggle_distinct_keys_identical_values(tmp_path):
    """Same query twice — folded and unfolded: two cache entries, one
    answer."""
    with BCService(tmp_path / "svc") as svc:
        svc.submit(spec(1, fold=True))
        svc.submit(spec(2, fold=False))
        svc.run_pending()
        rec_f, rec_u = svc.jobs["j000001"], svc.jobs["j000002"]
        assert rec_f.state == DONE and rec_u.state == DONE
        assert rec_f.result_key != rec_u.result_key
        assert os.path.exists(svc.cache.path(rec_f.result_key))
        assert os.path.exists(svc.cache.path(rec_u.result_key))
        vals_f, meta_f = svc.result("j000001")
        vals_u, meta_u = svc.result("j000002")
        assert meta_f["exact"] and meta_u["exact"]
        np.testing.assert_allclose(vals_f, vals_u, rtol=1e-9, atol=1e-9)


def test_identity_fold_still_keys_separately(tmp_path):
    """Even when folding removes nothing the digest is part of the
    query identity — toggling the flag must never alias cache keys."""
    with BCService(tmp_path / "svc") as svc:
        svc.submit(spec(1, fold=True, graph="smallworld"))
        svc.submit(spec(2, fold=False, graph="smallworld"))
        svc.run_pending()
        assert (svc.jobs["j000001"].result_key
                != svc.jobs["j000002"].result_key)


def test_folded_job_kill_and_recover_verifies_against_unfolded(tmp_path):
    """Crash after the folded job ran but before `done` was durable:
    the restarted service must reconverge on the same key and bytes,
    and the replayed values must equal an independent *unfolded*
    recompute of the same query."""
    ref_root = tmp_path / "ref"
    with BCService(ref_root) as svc:
        job = svc.submit(spec(1, fold=True))
        svc.run_pending()
        key = svc.jobs[job.job_id].result_key
        with open(svc.cache.path(key), "rb") as fh:
            blob = fh.read()
        with open(ref_root / "journal.jsonl", encoding="utf-8") as fh:
            submits = [body for ln in fh
                       if (body := json.loads(ln.split(" ", 1)[1]))["kind"]
                       == "submit"]
        assert submits and submits[0]["job"]["fold"] is True

    crash_root = tmp_path / "crash"
    os.makedirs(crash_root)
    with open(ref_root / "journal.jsonl", encoding="utf-8") as fh:
        lines = fh.readlines()
    kept = [ln for ln in lines
            if json.loads(ln.split(" ", 1)[1])["kind"] != "done"]
    with open(crash_root / "journal.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(kept)
    shutil.copytree(ref_root / "results", crash_root / "results")

    metrics = MetricsRegistry()
    with BCService(crash_root, metrics=metrics) as svc:
        assert svc.recovered_ids == ["j000001"]
        svc.run_pending()
        rec = svc.jobs["j000001"]
        assert rec.state == DONE and rec.result_key == key
        with open(svc.cache.path(key), "rb") as fh:
            assert fh.read() == blob
        values, meta = svc.result("j000001")
        assert meta["exact"]

    # Independent ground truth: rebuild the graph and roots exactly as
    # the daemon does, run unfolded, compare.
    s = spec(1)
    g = make_dataset(s.graph, scale_factor=s.scale_factor,
                     seed=s.graph_seed)
    rng = np.random.default_rng(s.seed)
    roots = np.sort(rng.choice(g.num_vertices,
                               size=min(s.roots, g.num_vertices),
                               replace=False))
    run = Device().run_bc(g, strategy=s.strategy, roots=roots, fold=False)
    np.testing.assert_allclose(values, run.bc, rtol=1e-9, atol=1e-9)
