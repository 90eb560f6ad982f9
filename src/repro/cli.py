"""Command-line interface: ``python -m repro <experiment> [options]``.

Regenerates any of the paper's tables/figures as plain text, e.g.::

    python -m repro table3 --scale-factor 32 --roots 24
    python -m repro figure5 --scales 10 11 12 13 14
    python -m repro all

``--scale-factor`` divides the paper's dataset sizes (64 by default);
``--roots`` sets how many BC roots are executed per run before
extrapolation.

Beyond the paper's artifacts, ``resilience`` runs the fault-tolerant
distributed driver against an injected fault plan::

    python -m repro resilience --faults "fail:1@reduce;oom:0x2" \
        --ranks 4 --max-retries 3

``profile`` runs one instrumented device run and writes a kernel
profile (schema ``repro.profile/v1``: per root, per BFS level —
frontier sizes, strategy chosen, charged cycles) plus the metrics
registry export::

    python -m repro profile --graph kron_g500-logn20 --scale-factor 4096 \
        --strategy sampling --roots 16 --out profile.json

``verify`` injects silent bit-flips (the ``sdc`` fault kind) and shows
the ABFT verification layer detecting and repairing them::

    python -m repro verify --faults "sdc:0@delta;sdc:1@sigma+1" \
        --verify paranoid --ranks 4

``--verify off|sampled|paranoid`` also applies to ``resilience`` runs.

``profile --trace-out trace.json`` additionally writes the run's
decision trace (schema ``repro.trace/v1``) — every hybrid/sampling
strategy decision with the exact α/β/γ comparison that caused it —
from the *same* run that produced the kernel profile.  ``trace
explain`` replays such a file as a per-root decision audit::

    python -m repro profile --strategy hybrid --trace-out trace.json
    python -m repro trace explain trace.json

``bench`` is the performance-regression gate: ``bench run`` executes
the benchmark grid (every strategy × one dataset per structural class)
and writes a ``repro.bench/v1`` document; ``bench diff`` pairs it with
a baseline by (dataset, strategy) and classifies each pair under a
noise-aware tolerance, exiting nonzero on regression when asked::

    python -m repro bench run --out bench_current.json
    python -m repro bench diff bench_current.json \
        --against BENCH_baseline.json --fail-on-regression
    python -m repro bench report bench_diff.json

``service`` runs BC as a crash-safe daemon: graphs load once, jobs are
submitted through a spool directory, state lives in a checksummed
write-ahead journal that survives ``kill -9``, and results land in a
content-addressed verified cache::

    python -m repro service serve --root svc --idle-exit 5 &
    python -m repro service submit --root svc --graph smallworld \
        --strategy sampling --roots 8
    python -m repro service status --root svc
    python -m repro service results --root svc <job-id>

``status``/``results`` only *read* the journal and cache, so they work
with the daemon live, dead, or mid-crash.

Every command also accepts ``--metrics-out metrics.json`` to export the
run's metrics registry (``repro.observability/v1``).  Output paths get
their parent directories created on demand; unwritable paths fail with
a one-line error instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .harness.experiments import EXPERIMENTS
from .harness.runner import ExperimentConfig

__all__ = ["main", "build_parser", "build_bench_parser",
           "build_trace_parser", "build_service_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bc",
        description="Regenerate tables/figures of McLaughlin & Bader, SC 2014",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "resilience", "profile",
                                       "verify"],
        help="which table/figure to regenerate ('all' for every paper "
             "artifact, 'resilience' for a fault-injected distributed run, "
             "'profile' for an instrumented device run exported as JSON, "
             "'verify' for a silent-corruption detection/repair demo)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry (counters/spans/histograms, "
             "schema repro.observability/v1) to this JSON file",
    )
    parser.add_argument("--scale-factor", type=int, default=64,
                        help="divide paper-scale dataset sizes by this (default 64)")
    parser.add_argument("--roots", type=int, default=24,
                        help="BC roots to execute per run (default 24)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--scales", type=int, nargs="+", default=None,
                        help="scale sweep for figure5/figure6/table4")
    parser.add_argument(
        "--no-fold", action="store_true",
        help="disable the degree-1 folding preprocess (on by default) "
             "for profile/resilience/verify runs")
    faults = parser.add_argument_group("resilience options")
    faults.add_argument(
        "--faults", default=None,
        help="fault plan, e.g. 'fail:1@reduce;oom:0x2;straggler:2x3;"
             "sdc:0@delta+1#55' (defaults: kill rank 1 mid-compute for "
             "'resilience', bit-flip two ranks for 'verify')",
    )
    faults.add_argument("--ranks", type=int, default=4,
                        help="simulated ranks for the resilient run (default 4)")
    faults.add_argument("--max-retries", type=int, default=3,
                        help="recovery rounds before degrading (default 3)")
    faults.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds (default: none)")
    faults.add_argument(
        "--verify", choices=["off", "sampled", "paranoid"], default=None,
        help="ABFT verification mode for resilience/verify runs "
             "(default: off for 'resilience', paranoid for 'verify')",
    )
    prof = parser.add_argument_group("profile options")
    prof.add_argument(
        "--graph", default="kron_g500-logn20",
        help="Table II dataset to profile (default kron_g500-logn20); "
             "sized by --scale-factor",
    )
    prof.add_argument(
        "--strategy", default="sampling",
        help="device strategy to profile (default sampling)",
    )
    prof.add_argument(
        "--out", default=None, metavar="PATH",
        help="where the profile (default profile.json) or verify report "
             "(default: not written) JSON goes; parent directories are "
             "created",
    )
    prof.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also write the run's decision trace (schema repro.trace/v1) "
             "to this JSON file — kernel profile and decision audit from "
             "one run; replay with 'repro trace explain PATH'",
    )
    return parser


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bc bench",
        description="Run the benchmark grid and diff it against a baseline "
                    "(the performance-regression gate).",
    )
    sub = parser.add_subparsers(dest="bench_command", required=True)

    run_p = sub.add_parser("run", help="run the grid, write repro.bench/v1")
    run_p.add_argument("--out", default="bench_current.json", metavar="PATH")
    run_p.add_argument("--scale-factor", type=int, default=1024)
    run_p.add_argument("--roots", type=int, default=16)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--n-samps", type=int, default=None,
                       help="sampling-phase size for the sampling strategy "
                            "(default: half of --roots)")
    run_p.add_argument("--no-service", action="store_true",
                       help="omit the service load-generator rows "
                            "(dataset 'service-load')")
    run_p.add_argument("--no-fold", action="store_true",
                       help="run the grid without the degree-1 folding "
                            "preprocess (for before/after comparisons)")

    diff_p = sub.add_parser(
        "diff", help="pair two bench documents and classify every "
                     "(dataset, strategy) pair")
    diff_p.add_argument("current", help="repro.bench/v1 file to judge")
    diff_p.add_argument("--against", required=True, metavar="BASELINE",
                        help="repro.bench/v1 file to compare against "
                             "(e.g. BENCH_baseline.json)")
    diff_p.add_argument("--metric", default=None,
                        help="row metric to compare (default makespan_cycles)")
    diff_p.add_argument("--rel-tol", type=float, default=None,
                        help="relative change threshold (default 0.05)")
    diff_p.add_argument("--min-effect", type=float, default=None,
                        help="absolute-change floor below which a pair is "
                             "unchanged (default: per-metric)")
    diff_p.add_argument("--report", default=None, metavar="PATH",
                        help="also write the machine-readable "
                             "repro.bench.diff/v1 verdict here")
    diff_p.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 if any pair regressed")

    rep_p = sub.add_parser(
        "report", help="re-render a saved repro.bench.diff/v1 verdict")
    rep_p.add_argument("report", help="repro.bench.diff/v1 file")
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bc trace",
        description="Replay a repro.trace/v1 decision trace as a "
                    "human-readable audit, or reconstruct one service "
                    "job's lifecycle from the service journal.",
    )
    sub = parser.add_subparsers(dest="trace_command", required=True)
    exp_p = sub.add_parser(
        "explain", help="per-root decision audit + frontier evolution")
    exp_p.add_argument("trace", help="repro.trace/v1 file (from "
                                     "'repro profile --trace-out')")
    exp_p.add_argument("--root", type=int, default=None,
                       help="audit only this root (default: all, "
                            "deduplicated by identical decision sequence)")
    tl_p = sub.add_parser(
        "timeline", help="span tree of one job's full lifecycle "
                         "(client -> admission -> attempts -> terminal) "
                         "from the service journal")
    tl_p.add_argument("id", help="job id or trace id ('tr…')")
    tl_p.add_argument("--root", default=".repro-service", metavar="DIR",
                      help="service directory holding journal.jsonl "
                           "(default .repro-service)")
    tl_p.add_argument("--out", default=None, metavar="PATH",
                      help="write the repro.timeline/v1 document here")
    tl_p.add_argument("--chrome-trace", default=None, metavar="PATH",
                      help="write this trace as a Chrome trace-event "
                           "file (chrome://tracing, Perfetto)")
    return parser


def build_service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bc service",
        description="Crash-safe BC service: durable job queue, "
                    "fault-hardened scheduler, admission control.",
    )
    # --root lives on a parent parser so each verb accepts it after the
    # subcommand; allow_abbrev=False keeps it from swallowing --roots.
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--root", default=".repro-service", metavar="DIR",
                        help="service directory (journal, result cache, "
                             "spool); default .repro-service")
    sub = parser.add_subparsers(dest="service_command", required=True)

    serve_p = sub.add_parser("serve", parents=[common],
                             help="run the daemon (foreground)")
    serve_p.add_argument("--max-queue", type=int, default=64)
    serve_p.add_argument("--degrade-threshold", type=int, default=None,
                         help="queue depth at which overload mode starts "
                              "(default: max-queue/2)")
    serve_p.add_argument("--tenant-quota", type=int, default=16)
    serve_p.add_argument("--max-retries", type=int, default=3)
    serve_p.add_argument("--devices", type=int, default=2,
                         help="simulated devices in the pool (default 2)")
    serve_p.add_argument("--seed", type=int, default=0,
                         help="scheduler seed (backoff jitter)")
    serve_p.add_argument("--throttle", type=float, default=0.0,
                         help="wall-clock sleep between jobs (the CI "
                              "kill-and-recover test widens its SIGKILL "
                              "window with this)")
    serve_p.add_argument("--idle-exit", type=float, default=None,
                         help="exit after this many idle seconds "
                              "(default: serve until SIGTERM)")
    serve_p.add_argument("--poll-interval", type=float, default=0.05)
    serve_p.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="export the registry's totals at exit "
                              "(per-job spans and events are not kept)")

    sub_p = sub.add_parser("submit", parents=[common],
                           help="queue one job via the spool")
    sub_p.add_argument("--job-id", default=None,
                       help="explicit id (default: generated)")
    sub_p.add_argument("--graph", default="smallworld")
    sub_p.add_argument("--scale-factor", type=int, default=1024)
    sub_p.add_argument("--graph-seed", type=int, default=0)
    sub_p.add_argument("--strategy", default="sampling")
    sub_p.add_argument("--roots", type=int, default=8)
    sub_p.add_argument("--seed", type=int, default=0)
    sub_p.add_argument("--tenant", default="default")
    sub_p.add_argument("--deadline", type=float, default=None,
                       help="simulated-seconds deadline")
    sub_p.add_argument("--no-fold", action="store_true",
                       help="run this job without the degree-1 folding "
                            "preprocess (distinct cache key, equal values)")
    sub_p.add_argument("--no-degrade", action="store_true",
                       help="fail rather than return a flagged estimate")
    sub_p.add_argument("--faults", default="",
                       help="FaultPlan chaos spec, e.g. 'fail:0@compute+1'")

    stat_p = sub.add_parser("status", parents=[common],
                            help="read job state from the journal")
    stat_p.add_argument("job_id", nargs="?", default=None)

    cancel_p = sub.add_parser("cancel", parents=[common],
                              help="request a pending job's "
                                   "cancellation via the spool")
    cancel_p.add_argument("job_id")

    res_p = sub.add_parser("results", parents=[common],
                           help="read one DONE job's verified "
                                "result from the cache")
    res_p.add_argument("job_id")
    res_p.add_argument("--out", default=None, metavar="PATH",
                       help="write a JSON export (repro.result/v1: key, "
                            "meta, values) here; not the cache layout")

    jour_p = sub.add_parser("journal", parents=[common],
                            help="inspect the on-disk journal chain")
    jour_p.add_argument("journal_action", choices=["verify"],
                        help="'verify': per-record checksum scan of "
                             "every segment; classifies a torn active "
                             "tail (benign) vs interior rot (fatal)")
    jour_p.add_argument("path", nargs="?", default=None,
                        help="journal file or service root "
                             "(default: --root)")

    top_p = sub.add_parser("top", parents=[common],
                           help="offline SLO snapshot: per-tenant/"
                                "per-strategy latency percentiles, "
                                "phase decomposition, shed/degrade/"
                                "error-budget rates from the journal's "
                                "event stream")
    top_p.add_argument("--out", default=None, metavar="PATH",
                       help="write the repro.slo/v1 report here")
    top_p.add_argument("--chrome-trace", default=None, metavar="PATH",
                       help="export the whole run as a Chrome "
                            "trace-event file (Perfetto-viewable)")

    soak_p = sub.add_parser("soak", parents=[common],
                            help="seeded chaos soak: kills, disk "
                                 "faults, retry storms; exits nonzero "
                                 "on any invariant violation")
    soak_p.add_argument("--seed", type=int, default=7)
    soak_p.add_argument("--rounds", type=int, default=4)
    soak_p.add_argument("--jobs", type=int, default=7,
                        help="submissions per round (default 7)")
    soak_p.add_argument("--clients", type=int, default=3,
                        help="concurrent retry-storm clients")
    soak_p.add_argument("--kill-every-round", action="store_true",
                        help="arm a SIGKILL-model crash in every round")
    soak_p.add_argument("--report-out", default=None, metavar="PATH",
                        help="write the full JSON soak report here")
    return parser


class _OutputError(Exception):
    """A report/metrics file could not be written; main() turns this
    into a one-line stderr message and a nonzero exit."""


class _InputError(Exception):
    """A required input file is missing/unreadable; rendered as a
    one-line actionable error with its own exit code (3), distinct from
    format errors (2)."""


def _write_report(path, payload_or_registry) -> None:
    from .observability import write_json

    try:
        write_json(path, payload_or_registry)
    except OSError as exc:
        raise _OutputError(
            f"error: cannot write {path}: {exc.strerror or exc}"
        ) from exc


def _render_profile(args, metrics) -> str:
    """Run one instrumented device run and write the kernel profile."""
    import numpy as np

    from .graph.generators import make_dataset
    from .gpusim import Device
    from .observability import registry_to_dict, run_profile

    out = args.out or "profile.json"
    g = make_dataset(args.graph, scale_factor=args.scale_factor,
                     seed=args.seed)
    rng = np.random.default_rng(args.seed)
    roots = np.sort(rng.choice(g.num_vertices,
                               size=min(args.roots, g.num_vertices),
                               replace=False))
    run = Device().run_bc(g, strategy=args.strategy, roots=roots,
                          metrics=metrics, fold=not args.no_fold)
    doc = run_profile(run, graph=g)
    reg = registry_to_dict(metrics)
    # One document: deterministic profile + metrics body; everything
    # wall-clock-dependent stays under the single "timing" key so two
    # seeded runs serialise byte-identically outside it.
    doc["metrics"] = {k: reg[k] for k in ("counters", "gauges", "histograms")}
    doc["timing"] = reg["timing"]
    _write_report(out, doc)
    lines = [
        f"profile          : {out}",
        f"graph            : {g.name or args.graph} "
        f"(n={g.num_vertices}, m={g.num_edges})",
        f"strategy         : {run.strategy} ({run.num_roots} roots)",
        f"makespan cycles  : {run.cycles:.0f} "
        f"({run.seconds * 1e3:.3f} simulated ms, {run.mteps():.1f} MTEPS)",
        f"levels traced    : "
        f"{sum(len(rt.levels) for rt in run.trace.roots)}",
    ]
    if args.trace_out:
        from .observability import trace_document

        _write_report(args.trace_out, trace_document(metrics, run=run, graph=g))
        lines.append(f"decision trace   : {args.trace_out} "
                     f"(replay with 'repro trace explain {args.trace_out}')")
    return "\n".join(lines)


def _load_bench_input(path, role: str):
    """Load a bench document, turning a missing/unreadable file into an
    actionable one-liner (exit 3) instead of a bare errno message."""
    from .bench import load_bench

    try:
        return load_bench(path)
    except OSError as exc:
        raise _InputError(
            f"error: cannot read {role} bench file {path!r}: "
            f"{exc.strerror or exc}. Generate it with "
            f"'repro bench run --out {path}' (the committed baseline "
            f"lives at BENCH_baseline.json)."
        ) from exc


def _bench_main(argv) -> int:
    from .bench import diff_bench, load_bench, run_bench_grid
    from .errors import BenchFormatError

    args = build_bench_parser().parse_args(argv)
    try:
        if args.bench_command == "run":
            doc, wall_per_run = run_bench_grid(
                scale_factor=args.scale_factor, roots=args.roots,
                seed=args.seed, n_samps=args.n_samps,
                include_service=not args.no_service,
                fold=not args.no_fold)
            doc["timing"] = {"per_run": wall_per_run,
                             "wall_seconds": sum(wall_per_run.values())}
            _write_report(args.out, doc)
            for row in doc["results"]:
                if "mteps" in row:
                    tail = f"{row['mteps']:>8.1f} MTEPS"
                else:  # service-load rows report latency, not traversal
                    tail = (f"p99 {row['p99_latency']:.2e}s "
                            f"shed {row['shed_rate']:.0%}")
                print(f"{row['dataset']:>20s} {row['strategy']:>15s} "
                      f"{row['makespan_cycles']:>14.0f} cycles {tail}")
            print(f"wrote {args.out}")
            return 0
        if args.bench_command == "diff":
            baseline = _load_bench_input(args.against, "baseline")
            current = _load_bench_input(args.current, "current")
            kwargs = {}
            if args.metric is not None:
                kwargs["metric"] = args.metric
            if args.rel_tol is not None:
                kwargs["rel_tol"] = args.rel_tol
            if args.min_effect is not None:
                kwargs["min_effect"] = args.min_effect
            diff = diff_bench(baseline, current, **kwargs)
            if args.report:
                _write_report(args.report, diff.to_dict())
            print(diff.render_table())
            if args.report:
                print(f"\nreport: {args.report}")
            return diff.exit_code if args.fail_on_regression else 0
        # bench report: re-render a saved verdict
        from .bench.regress import DIFF_SCHEMA, BenchDiff, Comparison
        from .observability import load_json

        try:
            saved = load_json(args.report)
        except OSError as exc:
            raise _InputError(
                f"error: cannot read diff report {args.report!r}: "
                f"{exc.strerror or exc}. Produce one with "
                f"'repro bench diff <current> --against "
                f"BENCH_baseline.json --report {args.report}'."
            ) from exc
        except ValueError as exc:
            raise BenchFormatError(str(exc)) from exc
        if not isinstance(saved, dict) or saved.get("schema") != DIFF_SCHEMA:
            raise BenchFormatError(
                f"{args.report}: expected schema {DIFF_SCHEMA!r}")
        diff = BenchDiff(
            metric=saved["metric"], rel_tol=saved["rel_tol"],
            min_effect=saved["min_effect"],
            higher_is_better=saved["higher_is_better"],
            rows=[Comparison(**row) for row in saved["rows"]],
            config_warnings=list(saved.get("config_warnings", [])),
        )
        print(diff.render_table())
        return 0
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 3
    except (BenchFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(exc, file=sys.stderr)
        return 2


def _spool_ticket(root: str, ticket: dict) -> str:
    """Atomically drop one ticket into the service spool; returns its
    path.  Atomic rename means the daemon never reads a half-written
    ticket.  The daemon takes tickets in name order, so the name leads
    with the write time: a cancel sorts after the submit it follows."""
    import json
    import os
    import time
    import uuid

    spool = os.path.join(root, "spool")
    os.makedirs(spool, exist_ok=True)
    name = f"{time.time_ns():020d}-{uuid.uuid4().hex}.json"
    tmp = os.path.join(spool, f".{name}.tmp")
    path = os.path.join(spool, name)
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ticket, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def _service_main(argv) -> int:
    import json
    import os

    from .errors import (
        JobSpecError,
        JournalCorruptionError,
    )
    from .service import (
        DONE,
        AdmissionPolicy,
        BCService,
        JobSpec,
        ResultCache,
        Scheduler,
        SimDevice,
        read_journal_chain,
        replay_state,
    )

    args = build_service_parser().parse_args(argv)
    root = args.root
    journal_path = os.path.join(root, "journal.jsonl")
    try:
        if args.service_command == "serve":
            from .observability import MetricsRegistry

            metrics = MetricsRegistry()
            policy = AdmissionPolicy(
                max_queue=args.max_queue,
                degrade_threshold=args.degrade_threshold,
                tenant_quota=args.tenant_quota)
            sched = Scheduler(
                [SimDevice(f"dev{i}") for i in range(max(1, args.devices))],
                max_retries=args.max_retries, seed=args.seed,
                metrics=metrics)
            svc = BCService(root, policy=policy, scheduler=sched,
                            metrics=metrics)
            if svc.recovered_ids:
                print(f"recovered {len(svc.recovered_ids)} interrupted "
                      f"job(s): {', '.join(svc.recovered_ids)}")
            print(f"serving from {root} "
                  f"(journal {journal_path}, pid {os.getpid()})")
            try:
                svc.serve_forever(poll_interval=args.poll_interval,
                                  throttle=args.throttle,
                                  idle_exit=args.idle_exit)
            finally:
                if args.metrics_out:
                    _write_report(args.metrics_out, metrics)
            print("drained; journal closed")
            return 0

        if args.service_command == "submit":
            spec = JobSpec(
                job_id=args.job_id or "", graph=args.graph,
                scale_factor=args.scale_factor, graph_seed=args.graph_seed,
                strategy=args.strategy, roots=args.roots, seed=args.seed,
                tenant=args.tenant, deadline_seconds=args.deadline,
                allow_degrade=not args.no_degrade,
                fold=not args.no_fold, faults=args.faults)
            if not spec.job_id:
                # Content-derived id: resubmitting the identical query
                # (lost ack, impatient retry) folds into the same job
                # instead of enqueuing it twice.
                from .client import derive_job_id

                spec = spec.with_id(derive_job_id(spec))
            _spool_ticket(root, {"op": "submit", "job": spec.to_dict()})
            print(spec.job_id)
            return 0

        if args.service_command == "cancel":
            _spool_ticket(root, {"op": "cancel", "job_id": args.job_id})
            print(f"cancel requested for {args.job_id}")
            return 0

        if args.service_command == "journal":
            from .service import verify_journal

            target = args.path or journal_path
            if os.path.isdir(target):
                target = os.path.join(target, "journal.jsonl")
            report = verify_journal(target)
            if (not report["files"]
                    or all(row["status"] == "missing"
                           for row in report["files"])):
                raise _InputError(
                    f"error: no journal at {target!r}. Start the daemon "
                    f"with 'repro service serve --root {root}'.")
            for row in report["files"]:
                extra = f" [{row['error']}]" if row.get("error") else ""
                seqs = ("-" if row["first_seq"] is None else
                        f"{row['first_seq']}..{row['last_seq']}")
                print(f"{row['role']:>8s} {os.path.basename(row['path']):>28s} "
                      f"{row['records']:>5d} rec  seq {seqs:>13s}  "
                      f"{row['bytes']:>7d} B  {row['status']}{extra}")
            for note in report["notes"]:
                print(f"note: {note}")
            print(f"{report['total_records']} record(s) across "
                  f"{len(report['files'])} file(s)")
            if report["problems"]:
                for problem in report["problems"]:
                    print(f"error: {problem}", file=sys.stderr)
                return 2
            print("journal chain verifies clean")
            return 0

        if args.service_command == "soak":
            from .observability import MetricsRegistry
            from .service import SoakConfig, run_soak

            cfg = SoakConfig(rounds=args.rounds,
                             jobs_per_round=args.jobs,
                             clients=args.clients,
                             kill_every_round=args.kill_every_round)
            report = run_soak(root, seed=args.seed, config=cfg,
                              metrics=MetricsRegistry(), log=print)
            print(f"soak seed={report['seed']}: "
                  f"{len(report['rounds'])} round(s), "
                  f"{report['kills']} kill(s), "
                  f"{report['faults_injected']} storage fault(s), "
                  f"{report['client_retries']} client retrie(s), "
                  f"{report['deduped']} deduped submit(s)")
            if args.report_out:
                _write_report(args.report_out, report)
            if report["violations"]:
                for v in report["violations"]:
                    print(f"VIOLATION (round {v['round']}): "
                          f"{v['invariant']}", file=sys.stderr)
                return 1
            print("all invariants held")
            return 0

        if args.service_command == "top":
            from .telemetry import (
                aggregate_slo,
                chrome_trace,
                read_events,
                render_top,
                write_chrome_trace,
            )

            if not os.path.exists(journal_path):
                raise _InputError(
                    f"error: no journal at {journal_path!r}. The "
                    f"daemon writes it; run some jobs first.")
            events, torn = read_events(journal_path)
            report = aggregate_slo(events)
            print("\n".join(render_top(report)))
            if torn:
                print("note: torn journal tail dropped (crash "
                      "mid-append; the next daemon open truncates it)")
            if args.out:
                _write_report(args.out, report)
            if args.chrome_trace:
                try:
                    write_chrome_trace(args.chrome_trace,
                                       chrome_trace(events))
                except OSError as exc:
                    raise _OutputError(
                        f"error: cannot write {args.chrome_trace}: "
                        f"{exc.strerror or exc}") from exc
                print(f"chrome trace: {args.chrome_trace}")
            return 0

        # status/results: read-only over the journal + cache — valid at
        # every instant, daemon or no daemon.
        if not os.path.exists(journal_path):
            raise _InputError(
                f"error: no journal at {journal_path!r}. Start the "
                f"daemon with 'repro service serve --root {root}'.")
        records, _torn = read_journal_chain(journal_path)
        state = replay_state(records, journal_path)

        if args.service_command == "status":
            if args.job_id is not None:
                job = state.jobs.get(args.job_id)
                if job is None:
                    print(f"error: no job {args.job_id!r} in the journal",
                          file=sys.stderr)
                    return 1
                print(json.dumps(job.status_dict(), indent=2,
                                 sort_keys=True))
                # Per-attempt timing (queued/backoff/compute per
                # attempt) from the event stream derived from the same
                # records.
                from .telemetry import attempt_rows, derive_events

                rows = attempt_rows(derive_events(records), args.job_id)
                if rows:
                    print("attempts (from event stream):")
                for r in rows:
                    tail = (f", backoff {r['backoff_after']:.6f}s"
                            if r["backoff_after"] is not None else "")
                    tail += (f", compute {r['compute']:.6f}s"
                             if r["compute"] is not None else "")
                    print(f"  a{r['attempt']} on {r['device']}: "
                          f"queued {r['queue_wait']:.6f}s -> "
                          f"{r['outcome']}{tail}")
                return 0
            ordered = sorted(state.jobs.values(),
                             key=lambda j: j.submit_seq)
            for job in ordered:
                flag = ("exact" if job.exact
                        else (job.degraded_reason or "-")
                        if job.exact is not None else "-")
                print(f"{job.job_id:>14s} {job.state:>9s} "
                      f"{job.spec.tenant:>10s} {job.spec.graph:>18s} "
                      f"{job.spec.strategy:>15s} a{job.attempt} {flag}")
            print(f"{len(ordered)} job(s), "
                  f"{sum(1 for j in ordered if not j.terminal)} live")
            return 0

        # results
        job = state.jobs.get(args.job_id)
        if job is None:
            print(f"error: no job {args.job_id!r} in the journal",
                  file=sys.stderr)
            return 1
        if job.state != DONE or job.result_key is None:
            print(f"error: job {args.job_id!r} has no result "
                  f"(state={job.state}"
                  + (f", error={job.error}" if job.error else "") + ")",
                  file=sys.stderr)
            return 1
        cache = ResultCache(os.path.join(root, "results"))
        hit = cache.get(job.result_key)
        if hit is None:
            print(f"error: result {job.result_key[:12]}… missing or "
                  f"corrupt (evicted); a serving daemon re-materialises "
                  f"it on demand", file=sys.stderr)
            return 1
        values, meta = hit
        if args.out:
            # A JSON export for readers of the values, not the binary
            # cache entry (repro.result/v2).
            _write_report(args.out, {
                "schema": "repro.result/v1", "key": job.result_key,
                "meta": meta, "values": [float(v) for v in values]})
        print(f"job       : {job.job_id}")
        print(f"exact     : {meta.get('exact')}"
              + (f" (degraded: {meta.get('degraded_reason')})"
                 if meta.get("degraded_reason") else ""))
        print(f"device    : {meta.get('device')} "
              f"(attempts {meta.get('attempts')}, "
              f"{float(meta.get('sim_seconds', 0.0)):.6f} sim s)")
        print(f"values    : n={values.size}, sum={float(values.sum()):.6f}, "
              f"max={float(values.max()):.6f}")
        if args.out:
            print(f"written   : {args.out}")
        return 0
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 3
    except JournalCorruptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JobSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(exc, file=sys.stderr)
        return 2


def _trace_main(argv) -> int:
    args = build_trace_parser().parse_args(argv)
    if args.trace_command == "timeline":
        return _trace_timeline(args)

    from .errors import TraceFormatError
    from .observability import explain_lines, load_trace

    try:
        doc = load_trace(args.trace)
        print("\n".join(explain_lines(doc, root=args.root)))
        return 0
    except (TraceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _trace_timeline(args) -> int:
    import os

    from .errors import JournalCorruptionError
    from .telemetry import (
        build_timeline,
        chrome_trace,
        read_events,
        render_timeline,
        write_chrome_trace,
    )

    path = os.path.join(args.root, "journal.jsonl")
    if not os.path.exists(path):
        print(f"error: no journal at {path!r}. The service daemon "
              f"writes journal.jsonl in its --root.", file=sys.stderr)
        return 3
    try:
        events, _torn = read_events(path)
    except JournalCorruptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Trace ids are 'tr' + 16 hex chars; everything else is a job id.
    selector = ({"trace_id": args.id}
                if args.id.startswith("tr") and len(args.id) == 18
                else {"job_id": args.id})
    try:
        doc = build_timeline(events, **selector)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(render_timeline(doc)))
    try:
        if args.out:
            _write_report(args.out, doc)
        if args.chrome_trace:
            if doc["trace_id"]:
                export = chrome_trace(events, trace_id=doc["trace_id"])
            else:
                export = chrome_trace(events, **selector)
            write_chrome_trace(args.chrome_trace, export)
            print(f"chrome trace: {args.chrome_trace}")
    except (_OutputError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def _render_resilience(args, metrics=None, verify: bool = False) -> str:
    """Run the fault-tolerant distributed driver on a small graph and
    report its record next to the serial ground truth.  ``verify`` is
    the silent-corruption demo: bit-flip faults and paranoid checks by
    default, plus a verdict and the ``--out`` report."""
    import numpy as np

    from .bc.api import betweenness_centrality
    from .graph.generators import watts_strogatz
    from .resilience import FaultPlan, resilient_distributed_bc

    n = max(16, 12288 // max(1, args.scale_factor))
    g = watts_strogatz(n, k=6, p=0.1, seed=args.seed)
    spec = args.faults if args.faults is not None else (
        "sdc:0@delta;sdc:1@sigma+1" if verify else "fail:1@compute+1")
    run = resilient_distributed_bc(
        g, args.ranks, fault_plan=FaultPlan.parse(spec),
        max_retries=args.max_retries, wall_clock_budget=args.budget,
        seed=args.seed, metrics=metrics,
        verify=args.verify or ("paranoid" if verify else "off"),
        fold=not args.no_fold,
    )
    ref = betweenness_centrality(g)
    err = float(np.max(np.abs(run.values - ref)))
    graph = g.name or "watts-strogatz"
    lines = [
        ("Silent-data-corruption verification (ABFT detect + self-heal)"
         if verify else
         "Resilient distributed BC (fault-injected Section V-D program)"),
        f"graph            : {graph} (n={g.num_vertices}, m={g.num_edges})",
        f"fault plan       : {spec}",
        run.summary(),
    ]
    if not verify:
        lines.append(f"max |err| vs serial: {err:.3e}"
                     + ("" if run.exact
                        else " (degraded roots are sampled estimates)"))
        return "\n".join(lines)
    if run.exact and np.allclose(run.values, ref):
        verdict = "corruption detected and repaired; values match serial BC"
    elif run.exact:
        verdict = "UNDETECTED CORRUPTION: values differ from serial BC"
    else:
        verdict = ("corruption surfaced; result degraded "
                   "(sampled estimate, not silently wrong)")
    lines += [f"max |err| vs serial: {err:.3e}",
              f"verdict          : {verdict}"]
    if args.out:
        _write_report(args.out, {
            "schema": "repro.verify/v1",
            "graph": {"name": graph, "num_vertices": g.num_vertices,
                      "num_edges": g.num_edges},
            "fault_plan": spec,
            "verification": run.verification,
            "exact": run.exact,
            "corruption_detected": run.corruption_detected,
            "roots_requarantined": run.roots_requarantined,
            "reduce_retries": run.reduce_retries,
            "corrupted_reduce": run.corrupted_reduce,
            "degraded_roots": run.degraded_roots,
            "max_abs_err_vs_serial": err,
        })
        lines.append(f"report           : {args.out}")
    return "\n".join(lines)


def _render(name: str, cfg: ExperimentConfig, scales) -> str:
    module = EXPERIMENTS[name]
    kwargs = {}
    if scales is not None and name in ("figure5", "figure6"):
        kwargs["scales"] = scales
    if scales is not None and name == "table4":
        kwargs["scale"] = scales[0]
    if name == "figure1":
        return module.render()
    return module.render(None, cfg, **kwargs) if kwargs else module.render(None, cfg)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # "bench" and "trace" are command groups with their own subparsers;
    # everything else flows through the legacy single-level parser.
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "service":
        return _service_main(argv[1:])
    args = build_parser().parse_args(argv)
    from .observability import MetricsRegistry

    metrics = MetricsRegistry()
    try:
        try:
            if args.experiment == "profile":
                print(_render_profile(args, metrics))
                print()
            elif args.experiment in ("resilience", "verify"):
                print(_render_resilience(
                    args, metrics=metrics,
                    verify=args.experiment == "verify"))
                print()
            else:
                cfg = ExperimentConfig(scale_factor=args.scale_factor,
                                       root_sample=args.roots, seed=args.seed)
                names = (sorted(EXPERIMENTS) if args.experiment == "all"
                         else [args.experiment])
                for name in names:
                    with metrics.span("experiment", name=name):
                        out = _render(name, cfg, args.scales)
                    metrics.inc("cli.experiments_rendered", name=name)
                    print(out)
                    print()
        finally:
            if args.metrics_out:
                _write_report(args.metrics_out, metrics)
    except _OutputError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
