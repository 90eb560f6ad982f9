"""Performance-regression gate: classification rules, grid, and CLI."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    DATASET_NAMES,
    DIFF_SCHEMA,
    STRATEGY_NAMES,
    BenchDiff,
    default_n_samps,
    diff_bench,
    load_bench,
    run_bench_grid,
)
from repro.cli import main
from repro.errors import BenchFormatError
from repro.gpusim import GTX_TITAN, Device
from repro.observability import dumps, write_json

# Kernel-only grid (the service load rows have their own tests in
# tests/service/test_loadgen.py and are scenario-keyed, not dataset-keyed).
GRID_KW = dict(scale_factor=8192, roots=4, seed=0,
               datasets=("smallworld", "kron_g500-logn20"),
               include_service=False)


def _doc(rows, **config):
    return {"schema": BENCH_SCHEMA, "config": config,
            "results": [
                {"dataset": d, "strategy": s, "makespan_cycles": v}
                for d, s, v in rows
            ]}


class TestClassification:
    def test_identical_docs_all_unchanged(self):
        doc = _doc([("a", "hybrid", 1e6), ("b", "sampling", 2e6)])
        diff = diff_bench(doc, doc)
        assert [r.status for r in diff.rows] == ["unchanged", "unchanged"]
        assert not diff.has_regressions and diff.exit_code == 0

    def test_slowdown_above_both_tolerances_regresses(self):
        base = _doc([("a", "hybrid", 1e6)])
        curr = _doc([("a", "hybrid", 1.2e6)])
        diff = diff_bench(base, curr)
        (row,) = diff.rows
        assert row.status == "regressed"
        assert row.delta == pytest.approx(0.2e6)
        assert row.ratio == pytest.approx(1.2)
        assert diff.exit_code == 1

    def test_speedup_is_improved_not_regressed(self):
        diff = diff_bench(_doc([("a", "hybrid", 1e6)]),
                          _doc([("a", "hybrid", 0.5e6)]))
        assert diff.rows[0].status == "improved"
        assert diff.exit_code == 0

    def test_min_effect_floor_suppresses_tiny_absolute_changes(self):
        """A 10% swing on a 40-cycle run is under the default 1000-cycle
        floor: unchanged, even though it clears the relative threshold."""
        diff = diff_bench(_doc([("a", "hybrid", 40.0)]),
                          _doc([("a", "hybrid", 44.0)]))
        assert diff.rows[0].status == "unchanged"

    def test_rel_tol_suppresses_small_relative_changes(self):
        """+2000 cycles on 1M clears the floor but is 0.2%: unchanged."""
        diff = diff_bench(_doc([("a", "hybrid", 1e6)]),
                          _doc([("a", "hybrid", 1.002e6)]))
        assert diff.rows[0].status == "unchanged"

    def test_higher_is_better_flips_direction_for_mteps(self):
        base = _doc([("a", "hybrid", 0)])
        base["results"][0]["mteps"] = 100.0
        curr = _doc([("a", "hybrid", 0)])
        curr["results"][0]["mteps"] = 50.0
        diff = diff_bench(base, curr, metric="mteps")
        assert diff.higher_is_better
        assert diff.rows[0].status == "regressed"

    def test_missing_and_new_pairs(self):
        base = _doc([("a", "hybrid", 1e6), ("a", "sampling", 2e6)])
        curr = _doc([("a", "hybrid", 1e6), ("b", "hybrid", 3e6)])
        diff = diff_bench(base, curr)
        by = {r.pair: r.status for r in diff.rows}
        assert by == {"a/hybrid": "unchanged", "a/sampling": "missing",
                      "b/hybrid": "new"}
        assert not diff.has_regressions  # lost coverage warns, gate is perf

    def test_config_mismatch_warns(self):
        base = _doc([("a", "hybrid", 1e6)], seed=0, roots=16)
        curr = _doc([("a", "hybrid", 1e6)], seed=1, roots=16)
        diff = diff_bench(base, curr)
        assert any("seed" in w for w in diff.config_warnings)
        assert "warning:" in diff.render_table()

    def test_verdict_document_shape(self):
        diff = diff_bench(_doc([("a", "hybrid", 1e6)]),
                          _doc([("a", "hybrid", 2e6)]))
        doc = diff.to_dict()
        assert doc["schema"] == "repro.bench.diff/v1"
        assert doc["verdict"] == "regressed"
        assert doc["regressions"] == ["a/hybrid"]
        assert doc["summary"]["regressed"] == 1
        # Canonically serialisable (the report file CI uploads).
        json.loads(dumps(doc))

    def test_duplicate_pair_rejected(self):
        dup = _doc([("a", "hybrid", 1.0), ("a", "hybrid", 2.0)])
        with pytest.raises(BenchFormatError, match="duplicate"):
            diff_bench(dup, dup)


class TestGrid:
    def test_grid_is_deterministic_and_complete(self):
        a, _ = run_bench_grid(**GRID_KW)
        b, _ = run_bench_grid(**GRID_KW)
        assert dumps(a).encode() == dumps(b).encode()
        assert len(a["results"]) == 2 * len(STRATEGY_NAMES)
        pairs = {(r["dataset"], r["strategy"]) for r in a["results"]}
        assert len(pairs) == len(a["results"])

    def test_sampling_rows_carry_the_decision_audit(self):
        """The satellite fix: sampling rows must expose the Algorithm 5
        classification, and n_samps must leave a non-empty phase 2 so
        the chosen method actually ran."""
        doc, _ = run_bench_grid(**GRID_KW)
        assert doc["config"]["n_samps"] == default_n_samps(4) == 2
        for row in doc["results"]:
            if row["strategy"] in ("sampling", "batched"):
                # batched classifies through the same Algorithm 5 depth
                # rule and must expose the same audit fields.
                assert row["sampling_chose_edge_parallel"] in (True, False)
                assert row["sampling_median_depth"] is not None
                assert row["sampling_depth_cutoff"] is not None
            else:
                assert row["sampling_chose_edge_parallel"] is None
                assert row["sampling_median_depth"] is None

    def test_committed_baseline_has_populated_sampling_fields(self):
        """Regression guard for the satellite: the checked-in baseline
        must never go back to decision-free sampling rows."""
        from pathlib import Path
        doc = load_bench(Path(__file__).resolve().parents[2]
                         / "BENCH_baseline.json")
        sampling = [r for r in doc["results"] if r["strategy"] == "sampling"]
        assert sampling
        assert all(r["sampling_chose_edge_parallel"] is not None
                   for r in sampling)
        assert doc["config"]["n_samps"] < doc["config"]["roots"]
        # Table II datasets plus the service load-generator rows.
        assert set(DATASET_NAMES) | {"service-load"} == \
            {r["dataset"] for r in doc["results"]}
        service = [r for r in doc["results"]
                   if r["dataset"] == "service-load"]
        assert {r["strategy"] for r in service} >= {"steady", "overload"}
        assert all(r["makespan_cycles"] > 0 for r in service)

    def test_straggler_device_regresses_every_pair(self):
        """Acceptance: a deliberately slowed device must trip the gate,
        naming the regressed (dataset, strategy) pairs."""
        base, _ = run_bench_grid(**GRID_KW)
        slow = Device(GTX_TITAN)
        slow.straggler_factor = 2.0
        curr, _ = run_bench_grid(device=slow, **GRID_KW)
        diff = diff_bench(base, curr)
        assert diff.has_regressions and diff.exit_code == 1
        assert {r.pair for r in diff.regressed} == {
            f"{d}/{s}" for d in GRID_KW["datasets"] for s in STRATEGY_NAMES}
        table = diff.render_table()
        assert "REGRESSED: " in table and "smallworld/hybrid" in table


class TestBenchCLI:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        write_json(path, doc)
        return str(path)

    def test_run_diff_self_is_all_unchanged(self, tmp_path, capsys):
        """Acceptance: an identical-seed rerun diffs clean, exit 0."""
        out = str(tmp_path / "cur.json")
        rc = main(["bench", "run", "--out", out, "--scale-factor", "8192",
                   "--roots", "4"])
        assert rc == 0
        assert json.loads(open(out).read())["schema"] == BENCH_SCHEMA
        rc = main(["bench", "diff", out, "--against", out,
                   "--fail-on-regression"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "no regressions" in text
        assert "regressed" not in text.replace("0 regressed", "")

    def test_diff_slowed_run_exits_nonzero_and_names_pairs(
            self, tmp_path, capsys):
        base, _ = run_bench_grid(**GRID_KW)
        slow = Device(GTX_TITAN)
        slow.straggler_factor = 2.0
        curr, _ = run_bench_grid(device=slow, **GRID_KW)
        base_p = self._write(tmp_path, "base.json", base)
        curr_p = self._write(tmp_path, "curr.json", curr)
        report = tmp_path / "diff.json"

        rc = main(["bench", "diff", curr_p, "--against", base_p,
                   "--fail-on-regression", "--report", str(report)])
        assert rc == 1
        text = capsys.readouterr().out
        assert "REGRESSED: " in text and "smallworld/sampling" in text

        saved = json.loads(report.read_text())
        assert saved["schema"] == "repro.bench.diff/v1"
        assert saved["verdict"] == "regressed"
        assert "kron_g500-logn20/edge-parallel" in saved["regressions"]

        # Without --fail-on-regression the diff is informational.
        assert main(["bench", "diff", curr_p, "--against", base_p]) == 0
        capsys.readouterr()

        # bench report re-renders the saved verdict.
        assert main(["bench", "report", str(report)]) == 0
        assert "REGRESSED: " in capsys.readouterr().out

    def test_diff_rejects_non_bench_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["bench", "diff", str(bad), "--against", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_load_bench_validates(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": BENCH_SCHEMA, "results": [{}]}))
        with pytest.raises(BenchFormatError, match="dataset"):
            load_bench(path)
        path.write_text("nope")
        with pytest.raises(BenchFormatError, match="not valid JSON"):
            load_bench(path)

    def test_baseline_script_matches_bench_run(self, tmp_path, capsys):
        """benchmarks/baseline.py and `repro bench run` are the same
        grid: identical flags produce identical bodies."""
        import importlib.util
        from pathlib import Path
        spec = importlib.util.spec_from_file_location(
            "baseline", Path(__file__).resolve().parents[2]
            / "benchmarks" / "baseline.py")
        baseline = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(baseline)

        script_out = tmp_path / "script.json"
        cli_out = tmp_path / "cli.json"
        assert baseline.main(["--out", str(script_out),
                              "--scale-factor", "8192", "--roots", "4"]) == 0
        assert main(["bench", "run", "--out", str(cli_out),
                     "--scale-factor", "8192", "--roots", "4"]) == 0
        capsys.readouterr()
        a = json.loads(script_out.read_text())
        b = json.loads(cli_out.read_text())
        a.pop("timing"), b.pop("timing")
        assert dumps(a) == dumps(b)


class TestSavedVerdict:
    def test_from_dict_round_trips(self):
        base = _doc([("a", "hybrid", 1e6), ("b", "sampling", 2e6),
                     ("c", "batched", 3e6)], scale_factor=1024)
        curr = _doc([("a", "hybrid", 2e6), ("b", "sampling", 1e6),
                     ("d", "hybrid", 1e6)], scale_factor=512)
        diff = diff_bench(base, curr)
        assert diff.config_warnings and diff.has_regressions
        again = BenchDiff.from_dict(json.loads(json.dumps(diff.to_dict())))
        assert again.render_table() == diff.render_table()
        assert again.to_dict() == diff.to_dict()

    @pytest.mark.parametrize("doc", [
        {}, [1], {"schema": BENCH_SCHEMA},
        {"schema": DIFF_SCHEMA, "metric": "makespan_cycles"},
    ], ids=["empty", "list", "bench-schema", "missing-keys"])
    def test_other_documents_are_format_errors(self, doc, tmp_path, capsys):
        with pytest.raises(BenchFormatError):
            BenchDiff.from_dict(doc)
        path = tmp_path / "verdict.json"
        path.write_text(json.dumps(doc))
        assert main(["bench", "report", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
