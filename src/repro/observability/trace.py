"""Decision traces: the ``repro.trace/v1`` audit log of a run.

A kernel profile (:mod:`repro.observability.profiles`) records *what*
happened — per level: frontier sizes, strategy, cycles.  A decision
trace records *why*: every strategy decision the adaptive policies took,
with the exact inputs and threshold comparison that produced it —
``|Δfrontier|`` against α and ``q_next`` against β for the hybrid method
(Algorithm 4), the sampled depth median against ``γ·log2(n)`` for the
sampling method (Algorithm 5), the per-iteration ``min_frontier`` guard
— plus the per-level frontier/edge-frontier timeline and any
communication or recovery events a distributed run emitted.

Both documents come from the same instrumented run ("one ``RunTrace``,
two exporters"): instrumented code appends structured events via
:meth:`MetricsRegistry.record` (a no-op on the null registry), and
:func:`trace_document` assembles them with the device run's level
timeline into one canonically-serialisable dict.  Everything in a trace
is simulated, so a fixed graph/seed/strategy serialises byte-identically
across runs — the same determinism contract the profile schema has.

:func:`explain_lines` replays a trace into the human-readable per-root
decision audit behind ``repro trace explain``, and
:func:`verify_decisions` cross-checks every recorded decision against
the strategies the levels actually executed under.
"""

from __future__ import annotations

import json

from ..errors import TraceFormatError
from .export import write_json
from .profiles import level_profile
from .registry import MetricsRegistry

__all__ = [
    "TRACE_SCHEMA",
    "trace_document",
    "write_trace",
    "load_trace",
    "decided_strategy_by_depth",
    "executed_strategy_by_depth",
    "verify_decisions",
    "frontier_evolution",
    "explain_lines",
]

TRACE_SCHEMA = "repro.trace/v1"

_DECISION = "decision."


def trace_document(metrics: MetricsRegistry | None = None, run=None,
                   graph=None) -> dict:
    """Assemble a ``repro.trace/v1`` document.

    Parameters
    ----------
    metrics:
        The registry the run was instrumented against; its recorded
        event stream supplies the ``decisions`` (every ``decision.*``
        event, in program order) and ``events`` (everything else —
        ``run.params``, ``comm.op``, ``resilience.*``) sections.
    run:
        Optional :class:`~repro.gpusim.device.DeviceRun`; adds the
        ``run`` summary and the flattened per-level ``levels`` timeline
        (one row per kernel iteration: root, depth, stage, strategy,
        vertex/edge frontier, cycles).
    graph:
        Optional :class:`~repro.graph.csr.CSRGraph`; adds a ``graph``
        section.
    """
    events = list(metrics.events) if metrics is not None else []
    doc = {
        "schema": TRACE_SCHEMA,
        "decisions": [e for e in events if e["event"].startswith(_DECISION)],
        "events": [e for e in events if not e["event"].startswith(_DECISION)],
        "levels": [],
    }
    if run is not None:
        doc["run"] = {
            "strategy": run.strategy,
            "num_vertices": int(run.num_vertices),
            "num_edges": int(run.num_edges),
            "num_roots": int(run.num_roots),
            "makespan_cycles": float(run.cycles),
            "sim_seconds": float(run.seconds),
            "fixed_roots": int(run.fixed_roots),
            "sampling_chose_edge_parallel": run.sampling_chose_edge_parallel,
        }
        doc["levels"] = [
            {"root": int(rt.root), **level_profile(lv)}
            for rt in run.trace.roots for lv in rt.levels
        ]
    if graph is not None:
        doc["graph"] = {
            "name": graph.name or "",
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "undirected": bool(graph.undirected),
        }
    return doc


def write_trace(path, doc_or_metrics, run=None, graph=None) -> dict:
    """Write a trace as canonical JSON (sorted keys, fixed separators —
    byte-identical for identical seeded runs); accepts either a
    finished document or a registry (plus optional run/graph)."""
    doc = (trace_document(doc_or_metrics, run=run, graph=graph)
           if isinstance(doc_or_metrics, MetricsRegistry)
           else doc_or_metrics)
    return write_json(path, doc)


def load_trace(path) -> dict:
    """Load and validate a ``repro.trace/v1`` document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(
            f"{path}: expected schema {TRACE_SCHEMA!r}, "
            f"got {doc.get('schema') if isinstance(doc, dict) else type(doc).__name__!r}"
        )
    for key in ("decisions", "events", "levels"):
        if not isinstance(doc.get(key), list):
            raise TraceFormatError(f"{path}: missing or non-list {key!r} section")
    return doc


# ----------------------------------------------------------------------
# Audit: decisions vs. executed levels.

def decided_strategy_by_depth(doc: dict, root: int) -> dict:
    """``{depth: strategy}`` a root's recorded decisions *promise*:
    depth 0 from its ``decision.initial`` event, depth d from the
    ``decision.step`` event with ``applies_to_depth == d``."""
    out: dict = {}
    for ev in doc["decisions"]:
        if ev.get("root") != root:
            continue
        if ev["event"] in ("decision.initial", "decision.step"):
            out[int(ev["applies_to_depth"])] = ev["strategy"]
    return out


def executed_strategy_by_depth(doc: dict, root: int) -> dict:
    """``{depth: strategy}`` the root's forward levels actually ran
    under (the trace-side mirror of
    :meth:`repro.gpusim.trace.RootTrace.strategy_by_depth`)."""
    return {int(lv["depth"]): lv["strategy"] for lv in doc["levels"]
            if lv["root"] == root and lv["stage"] == "forward"}


def verify_decisions(doc: dict) -> list:
    """Cross-check the audit: every executed forward level's strategy
    must match the decision recorded for that depth.  Returns a list of
    human-readable mismatch strings — empty means the trace is
    consistent."""
    problems: list = []
    roots = sorted({lv["root"] for lv in doc["levels"]})
    for root in roots:
        decided = decided_strategy_by_depth(doc, root)
        executed = executed_strategy_by_depth(doc, root)
        for depth, strategy in sorted(executed.items()):
            want = decided.get(depth)
            if want is None:
                problems.append(
                    f"root {root} depth {depth}: level ran "
                    f"{strategy} but no decision was recorded"
                )
            elif want != strategy:
                problems.append(
                    f"root {root} depth {depth}: decision chose {want} "
                    f"but the level ran {strategy}"
                )
    return problems


# ----------------------------------------------------------------------
# Figure-1-style frontier evolution summary.

def frontier_evolution(doc: dict) -> list:
    """Per-depth aggregates over every root's forward sweep: how many
    levels ran at each depth, mean/max vertex and edge frontiers, and
    which strategies processed them — the trace-level analogue of the
    paper's Figure 1 frontier-shape discussion."""
    by_depth: dict = {}
    for lv in doc["levels"]:
        if lv["stage"] != "forward":
            continue
        row = by_depth.setdefault(int(lv["depth"]), {
            "depth": int(lv["depth"]), "levels": 0,
            "frontier_sum": 0, "frontier_max": 0,
            "edge_sum": 0, "edge_max": 0, "strategies": [],
        })
        row["levels"] += 1
        row["frontier_sum"] += int(lv["frontier"])
        row["frontier_max"] = max(row["frontier_max"], int(lv["frontier"]))
        row["edge_sum"] += int(lv["edge_frontier"])
        row["edge_max"] = max(row["edge_max"], int(lv["edge_frontier"]))
        if lv["strategy"] not in row["strategies"]:
            row["strategies"].append(lv["strategy"])
    out = []
    for depth in sorted(by_depth):
        row = by_depth[depth]
        row["frontier_mean"] = row["frontier_sum"] / row["levels"]
        row["edge_mean"] = row["edge_sum"] / row["levels"]
        out.append(row)
    return out


# ----------------------------------------------------------------------
# Human-readable replay (``repro trace explain``).

def _root_audit_signature(doc: dict, root: int) -> tuple:
    """Hashable fingerprint of one root's decision sequence, used to
    group roots that took identical decisions."""
    sig = []
    for ev in doc["decisions"]:
        if ev.get("root") != root:
            continue
        sig.append((ev["event"], int(ev.get("applies_to_depth", -1)),
                    ev["strategy"], ev["rule"]))
    return tuple(sig)


def _format_roots(roots: list) -> str:
    if len(roots) == 1:
        return f"root {roots[0]}"
    if len(roots) <= 8:
        return "roots " + ", ".join(str(r) for r in roots)
    head = ", ".join(str(r) for r in roots[:8])
    return f"roots {head} (+{len(roots) - 8} more)"


def explain_lines(doc: dict, root: int | None = None) -> list:
    """Replay a trace into a per-root decision audit.

    Groups roots whose decision sequences are identical (on most graphs
    the bulk of roots switch at the same depths), prints every
    switch/keep with the recorded rule — the exact α/β/γ comparison —
    then the sampling classification (if any), a Figure-1-style
    frontier-evolution table, and the consistency verdict of
    :func:`verify_decisions`.
    """
    lines: list = []
    run = doc.get("run", {})
    graph = doc.get("graph", {})
    if run or graph:
        name = graph.get("name") or "?"
        lines.append(
            f"trace: strategy={run.get('strategy', '?')} graph={name} "
            f"(n={run.get('num_vertices', graph.get('num_vertices', '?'))}, "
            f"m={run.get('num_edges', graph.get('num_edges', '?'))}) "
            f"roots={run.get('num_roots', '?')}"
        )

    # Graph-level depth classification (Algorithm 5) of the sampling and
    # batched strategies, if taken.
    for ev in doc["decisions"]:
        if ev["event"] not in ("decision.sampling", "decision.batched"):
            continue
        kind = ev["event"].split(".")[1]
        lines.append("")
        lines.append(
            f"{kind} classification over {ev['n_samps']} sampled "
            f"root(s): {ev['rule']}"
        )
        depths = ev.get("depths") or []
        if depths:
            lines.append(
                f"  sampled BFS depths: min={min(depths)} "
                f"median={ev.get('median_depth')} max={max(depths)}"
            )
        guard = ev.get("min_frontier")
        if kind == "batched":
            if ev.get("verified_per_root"):
                routing = ("per-root work-efficient: verification checks "
                           "every root on its own")
            elif ev.get("chose_edge_parallel"):
                routing = (f"in frontier-matrix batches of "
                           f"{ev['batch_size']} roots")
            else:
                routing = "per-root work-efficient"
            lines.append(f"  remaining roots run {routing}")
        elif ev.get("chose_edge_parallel") and guard is not None:
            lines.append(
                f"  remaining roots run edge-parallel, guarded per "
                f"iteration by frontier >= {guard}"
            )

    # Per-root decision audits, deduplicated by decision signature.
    roots = sorted({ev["root"] for ev in doc["decisions"]
                    if "root" in ev})
    if root is not None:
        roots = [r for r in roots if r == root]
    groups: dict = {}
    for r in roots:
        groups.setdefault(_root_audit_signature(doc, r), []).append(r)
    for sig, members in groups.items():
        lines.append("")
        lines.append(f"{_format_roots(members)}:")
        rep = members[0]
        for ev in doc["decisions"]:
            if ev.get("root") != rep:
                continue
            if ev["event"] == "decision.initial":
                lines.append(
                    f"  depth 0 [{ev['policy']}] {ev['strategy']} — "
                    f"{ev['rule']}"
                )
            elif ev["event"] == "decision.step":
                switched = ev["strategy"] != ev.get("previous")
                marker = " ** switch **" if switched else ""
                lines.append(
                    f"  depth {ev['applies_to_depth']} [{ev['policy']}] "
                    f"{ev['strategy']} — {ev['rule']}{marker}"
                )

    evolution = frontier_evolution(doc)
    if evolution:
        lines.append("")
        lines.append("frontier evolution (forward sweep, all roots):")
        lines.append(
            f"  {'depth':>5} {'levels':>6} {'frontier mean':>13} "
            f"{'max':>8} {'edges mean':>11} {'max':>9}  strategies"
        )
        for row in evolution:
            lines.append(
                f"  {row['depth']:>5} {row['levels']:>6} "
                f"{row['frontier_mean']:>13.1f} {row['frontier_max']:>8} "
                f"{row['edge_mean']:>11.1f} {row['edge_max']:>9}  "
                + ",".join(row["strategies"])
            )

    comm = [e for e in doc["events"] if e["event"] == "comm.op"]
    if comm:
        lines.append("")
        lines.append(
            f"communication: {len(comm)} collective(s), "
            f"{sum(e['nbytes'] for e in comm)} bytes, "
            f"{sum(e['seconds'] for e in comm):.6f} simulated s"
        )
    incidents = [e for e in doc["events"]
                 if e["event"] == "resilience.incident"]
    for ev in incidents:
        lines.append(
            f"incident: rank {ev['rank']} {ev['kind']} at {ev['where']!r} "
            f"(attempt {ev['attempt']}, {ev['roots_lost']} roots orphaned)"
        )

    if doc["levels"]:
        problems = verify_decisions(doc)
        lines.append("")
        if problems:
            lines.append(f"AUDIT FAILED: {len(problems)} decision/level "
                         f"mismatch(es):")
            lines.extend(f"  {p}" for p in problems)
        else:
            lines.append("audit: every executed level matches its "
                         "recorded decision")
    return lines
