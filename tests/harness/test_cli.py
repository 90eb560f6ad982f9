"""Unit tests for the CLI entry point."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_experiments(self):
        args = build_parser().parse_args(["table2", "--scale-factor", "256"])
        assert args.experiment == "table2"
        assert args.scale_factor == 256

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_scales_list(self):
        args = build_parser().parse_args(["figure5", "--scales", "10", "11"])
        assert args.scales == [10, 11]


class TestMain:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--scale-factor", "512", "--roots", "2"]) == 0
        assert "af_shell9" in capsys.readouterr().out

    def test_figure5_with_scales(self, capsys):
        assert main(["figure5", "--scale-factor", "1", "--roots", "2",
                     "--scales", "8", "9"]) == 0
        assert "GPU-FAN" in capsys.readouterr().out


@pytest.mark.faults
class TestResilienceCommand:
    def test_parser_accepts_fault_options(self):
        args = build_parser().parse_args(
            ["resilience", "--faults", "fail:0@reduce", "--ranks", "3",
             "--max-retries", "1"]
        )
        assert args.experiment == "resilience"
        assert args.faults == "fail:0@reduce"
        assert args.ranks == 3
        assert args.max_retries == 1

    def test_recovered_run_reports_exact(self, capsys):
        assert main(["resilience", "--scale-factor", "256",
                     "--faults", "fail:1@compute+1", "--ranks", "3"]) == 0
        out = capsys.readouterr().out
        assert "EXACT" in out
        assert "fail-stop" in out

    def test_exhausted_run_reports_degraded(self, capsys):
        assert main(["resilience", "--scale-factor", "256",
                     "--faults", "oom:0x9", "--ranks", "1",
                     "--max-retries", "1"]) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out


@pytest.mark.sdc
class TestVerifyCommand:
    def test_parser_accepts_verify_options(self):
        args = build_parser().parse_args(
            ["verify", "--faults", "sdc:0@sigma+1#62", "--verify",
             "paranoid", "--ranks", "3"]
        )
        assert args.experiment == "verify"
        assert args.faults == "sdc:0@sigma+1#62"
        assert args.verify == "paranoid"

    def test_default_run_repairs(self, capsys):
        assert main(["verify", "--ranks", "3"]) == 0
        out = capsys.readouterr().out
        assert "corruption detected and repaired" in out
        assert "paranoid" in out

    def test_verify_off_flags_undetected_corruption(self, capsys):
        assert main(["verify", "--verify", "off", "--ranks", "3"]) == 0
        assert "UNDETECTED CORRUPTION" in capsys.readouterr().out

    def test_report_written(self, tmp_path, capsys):
        out_path = tmp_path / "nested" / "dir" / "report.json"
        assert main(["verify", "--ranks", "3", "--out", str(out_path)]) == 0
        import json

        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.verify/v1"
        assert report["corruption_detected"] >= 1


class TestOutputErrors:
    def test_metrics_out_creates_parent_dirs(self, tmp_path):
        metrics = tmp_path / "a" / "b" / "metrics.json"
        assert main(["figure1", "--metrics-out", str(metrics)]) == 0
        assert metrics.exists()

    def test_unwritable_path_is_one_line_error(self, capsys):
        rc = main(["figure1", "--metrics-out", "/proc/nope/metrics.json"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot write /proc/nope/metrics.json")


# -- the exit-code table ------------------------------------------------
# One row per (command, cause) of README's exit-code table: 1 = the
# command ran and the answer is "no", 2 = a bad input or an unwritable
# output, 3 = a required input is missing.

def _service_roots(base):
    """A live service root (one DONE job, one pending), the same root
    with its cache emptied, one with interior journal rot, and an empty
    one."""
    import shutil

    from repro.service import BCService, JobSpec

    live = base / "live"
    with BCService(live) as svc:
        for job_id in ("done1", "pend1"):
            svc.submit(JobSpec(job_id=job_id, graph="smallworld",
                               scale_factor=512, strategy="sampling",
                               roots=2))
        svc.run_pending(max_jobs=1)
    shutil.copytree(live, base / "evicted")
    shutil.rmtree(base / "evicted" / "results")
    shutil.copytree(live, base / "corrupt")
    journal = base / "corrupt" / "journal.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"not a record\n" + b"".join(lines[1:]))
    (base / "empty").mkdir()
    return {name: str(base / name)
            for name in ("live", "evicted", "corrupt", "empty")}


def _bench_files(base):
    from repro.bench import BENCH_SCHEMA

    def doc(cycles):
        return {"schema": BENCH_SCHEMA, "config": {}, "results": [
            {"dataset": "smallworld", "strategy": "sampling",
             "makespan_cycles": cycles}]}

    files = {"base": doc(1e6), "slow": doc(2e6), "schemaless": {}}
    for name, body in files.items():
        (base / f"{name}.json").write_text(json.dumps(body))
    (base / "garbled.json").write_text("{not json")
    return {name: str(base / f"{name}.json")
            for name in list(files) + ["garbled"]}


def _clean_soak(root, **kw):
    return {"seed": 0, "rounds": [], "kills": 0, "faults_injected": 0,
            "client_retries": 0, "deduped": 0, "violations": []}


def _violated_soak(root, **kw):
    report = _clean_soak(root)
    report["violations"] = [{"round": 1, "invariant": "job lost"}]
    return report


EXIT_TABLE = [
    # experiments
    ("experiment-unwritable-output", 1,
     lambda d: ["figure1", "--metrics-out", d["unwritable"]]),
    # bench
    ("bench-regression", 1,
     lambda d: ["bench", "diff", d["slow"], "--against", d["base"],
                "--fail-on-regression"]),
    ("bench-diff-bad-format", 2,
     lambda d: ["bench", "diff", d["schemaless"], "--against", d["base"]]),
    ("bench-report-bad-schema", 2,
     lambda d: ["bench", "report", d["base"]]),
    ("bench-report-bad-json", 2,
     lambda d: ["bench", "report", d["garbled"]]),
    ("bench-diff-unwritable-report", 2,
     lambda d: ["bench", "diff", d["base"], "--against", d["base"],
                "--report", d["unwritable"]]),
    ("bench-diff-missing-input", 3,
     lambda d: ["bench", "diff", d["missing"], "--against", d["base"]]),
    ("bench-report-missing-input", 3,
     lambda d: ["bench", "report", d["missing"]]),
    # service
    ("service-status-unknown-job", 1,
     lambda d: ["service", "status", "nosuch", "--root", d["live"]]),
    ("service-results-unknown-job", 1,
     lambda d: ["service", "results", "nosuch", "--root", d["live"]]),
    ("service-results-not-done", 1,
     lambda d: ["service", "results", "pend1", "--root", d["live"]]),
    ("service-results-evicted", 1,
     lambda d: ["service", "results", "done1", "--root", d["evicted"]]),
    ("service-soak-violation", 1,
     lambda d: ["service", "soak", "--root", d["soak"]]),
    ("service-status-corrupt-journal", 2,
     lambda d: ["service", "status", "--root", d["corrupt"]]),
    ("service-results-corrupt-journal", 2,
     lambda d: ["service", "results", "done1", "--root", d["corrupt"]]),
    ("service-top-corrupt-journal", 2,
     lambda d: ["service", "top", "--root", d["corrupt"]]),
    ("service-submit-bad-spec", 2,
     lambda d: ["service", "submit", "--root", d["live"], "--roots", "0"]),
    ("service-results-unwritable-output", 2,
     lambda d: ["service", "results", "done1", "--root", d["live"],
                "--out", d["unwritable"]]),
    ("service-top-unwritable-output", 2,
     lambda d: ["service", "top", "--root", d["live"],
                "--out", d["unwritable"]]),
    ("service-top-unwritable-chrome-trace", 2,
     lambda d: ["service", "top", "--root", d["live"],
                "--chrome-trace", d["unwritable"]]),
    ("service-soak-unwritable-report", 2,
     lambda d: ["service", "soak", "--root", d["soak"],
                "--report-out", d["unwritable"]]),
    ("service-journal-verify-problems", 2,
     lambda d: ["service", "journal", "verify", d["corrupt"]]),
    ("service-status-missing-journal", 3,
     lambda d: ["service", "status", "--root", d["empty"]]),
    ("service-results-missing-journal", 3,
     lambda d: ["service", "results", "done1", "--root", d["empty"]]),
    ("service-top-missing-journal", 3,
     lambda d: ["service", "top", "--root", d["empty"]]),
    ("service-journal-verify-missing", 3,
     lambda d: ["service", "journal", "verify", d["empty"]]),
    # trace explain
    ("trace-explain-missing-file", 2,
     lambda d: ["trace", "explain", d["missing"]]),
    ("trace-explain-bad-json", 2,
     lambda d: ["trace", "explain", d["garbled"]]),
    ("trace-explain-bad-schema", 2,
     lambda d: ["trace", "explain", d["base"]]),
    # trace timeline
    ("timeline-unknown-id", 1,
     lambda d: ["trace", "timeline", "nosuch", "--root", d["live"]]),
    ("timeline-corrupt-journal", 2,
     lambda d: ["trace", "timeline", "done1", "--root", d["corrupt"]]),
    ("timeline-unwritable-output", 2,
     lambda d: ["trace", "timeline", "done1", "--root", d["live"],
                "--out", d["unwritable"]]),
    ("timeline-unwritable-chrome-trace", 2,
     lambda d: ["trace", "timeline", "done1", "--root", d["live"],
                "--chrome-trace", d["unwritable"]]),
    ("timeline-missing-journal", 3,
     lambda d: ["trace", "timeline", "done1", "--root", d["empty"]]),
]


@pytest.fixture(scope="module")
def exit_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("exit-codes")
    (base / "a-file").write_text("")
    return {**_service_roots(base), **_bench_files(base),
            "unwritable": str(base / "a-file" / "out.json"),
            "missing": str(base / "missing.json"),
            "soak": str(base / "soak")}


@pytest.mark.parametrize("case,code,argv", EXIT_TABLE,
                         ids=[row[0] for row in EXIT_TABLE])
def test_exit_code_table(case, code, argv, exit_inputs, monkeypatch,
                         capsys):
    import repro.service

    monkeypatch.setattr(repro.service, "run_soak",
                        _violated_soak if case == "service-soak-violation"
                        else _clean_soak)
    assert main(argv(exit_inputs)) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv,shown", [
    (["service", "status"], "j3"), (["service", "top"], "TOTAL"),
    (["trace", "timeline", "j3"], "j3")], ids=["status", "top", "timeline"])
def test_a_chain_without_its_active_segment_is_a_journal(argv, shown,
                                                         tmp_path, capsys):
    # Right after a rotation the chain is sealed segments and a compact
    # file, with no active journal.jsonl until the next append.
    from repro.service import BCService, JobSpec

    root = tmp_path / "svc"
    with BCService(root, journal_max_segment_bytes=1500,
                   journal_keep_terminal=2) as svc:
        for i in range(4):
            svc.submit(JobSpec(job_id=f"j{i}", graph="smallworld",
                               scale_factor=512, strategy="sampling",
                               roots=2, seed=i))
            svc.run_pending()
    (root / "journal.jsonl").unlink()
    assert main(argv + ["--root", str(root)]) == 0
    assert shown in capsys.readouterr().out
