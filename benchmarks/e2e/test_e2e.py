"""Checks of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every workload runs in-process at :data:`SMALL` size.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.gpusim.device import Device  # noqa: E402
from repro.telemetry.chrome import validate_chrome_trace  # noqa: E402

SMALL = workloads.Size(
    scalefree=(("kron_g500-logn20", 1024), ("caidaRouterLevel", 256)),
    deep=(("luxembourg.osm", 256),),
    roots=8, n_samps=4, min_passes=2, setup_repeats=2,
    warmup_jobs=3, min_jobs=24, preload_jobs=12, min_requests=60,
    traced_jobs=12, traced_requests=40, check_every=3,
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("e2e"))
    return {(name, trace): workloads.run_workload(
                name, seed=3, seconds=0.0, trace=trace, size=SMALL,
                out_dir=out_dir)
            for name in workloads.WORKLOADS for trace in (False, True)}


def test_declared_metrics_are_well_formed():
    e2e, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in e2e + per_layer]
    assert len(names) == len(set(names))
    for m in e2e + per_layer:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert UNIT.fullmatch(m["unit"]) and len(m["unit"]) <= 16
        assert m["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in e2e)} in e2e
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_metrics_match_the_layer_table():
    expected = {f"{layer}.{kind}" for layer in layers.LAYER_NAMES
                for kind in ("calls", "self_s")}
    expected |= set(layers.EXTRA_METRICS) | {"trace.overhead"}
    assert {m["name"] for m in SPEC["per_layer"]} == expected


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_is_correct_and_emits_every_metric(results, name, trace):
    out = results[name, trace]
    assert out.failures == []
    assert out.attempted > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for m in declared:
        value = out.metrics[m["name"]]
        assert np.isfinite(value), m["name"]
        if not trace:
            assert value > 0, m["name"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_self_times_sum_to_traced_wall(results, name):
    out = results[name, True]
    attributed = sum(v for k, v in out.metrics.items()
                     if k.endswith(".self_s"))
    wall = out.info["traced_wall_s"]
    assert abs(attributed - wall) <= 0.05 * wall


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_trace_file_is_a_valid_chrome_trace(results, name):
    with open(results[name, True].info["trace_file"], encoding="utf-8") as fh:
        doc = json.load(fh)
    assert validate_chrome_trace(doc) == []
    spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    assert spans and all(ev["args"]["request"] for ev in spans)


def test_tracer_restores_the_program():
    original = Device.__dict__["run_bc"]
    tracer = layers.Tracer()
    with tracer.installed():
        assert Device.__dict__["run_bc"] is not original
    assert Device.__dict__["run_bc"] is original


def test_corrupted_bc_raises_error_rate(monkeypatch, tmp_path):
    original = Device.run_bc
    calls = []

    def corrupting(self, *args, **kwargs):
        run = original(self, *args, **kwargs)
        calls.append(1)
        if len(calls) == 15:      # one run of the first timed pass
            run.bc[0] += 1.0
        return run

    monkeypatch.setattr(Device, "run_bc", corrupting)
    out = workloads.run_workload("grid-scalefree", seed=3, seconds=0.0,
                                 size=SMALL, out_dir=str(tmp_path))
    assert len(out.failures) == 1
    assert "warm-up" in out.failures[0]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "grid-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _doc(values: dict) -> dict:
    return {"workloads": {"w": {"metrics": values}}}


def test_compare_classifies_medians_and_spread(tmp_path):
    runs = {"base": [10.0, 10.1, 10.2], "same": [10.0, 10.1, 10.2],
            "slow": [13.0, 13.1, 13.2], "noisy": [5.0, 10.0, 20.0]}
    paths = {}
    for side, values in runs.items():
        paths[side] = []
        for i, v in enumerate(values):
            p = tmp_path / f"{side}{i}.json"
            p.write_text(json.dumps(_doc({"job_p10_ms": v,
                                          "sim_mteps.hybrid": 7.0})))
            paths[side].append(str(p))

    def status(current: str) -> dict:
        rows = compare.compare(compare._values(paths["base"]),
                               compare._values(paths[current]), SPEC)
        return {r["metric"]: (r["status"], r["same"]) for r in rows}

    assert status("same") == {"job_p10_ms": ("unchanged", False),
                              "sim_mteps.hybrid": ("unchanged", True)}
    assert status("slow")["job_p10_ms"] == ("regressed", False)
    assert status("noisy")["job_p10_ms"] == ("unresolved", False)
