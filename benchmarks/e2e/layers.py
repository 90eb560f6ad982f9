"""Outside-in layer tracing: time calls into each layer's public API.

:class:`Tracer` wraps module and class attributes of the program for
the duration of a traced run and restores them afterwards, so no
source file changes.  A call into a *span* layer opens a span (name,
start, end, parent span, request id) kept in memory; a call into a
*leaf* layer (frontier, accumulation, cost, policies, observability,
batched, verify) is folded into its nearest enclosing span as a call
count and self time, which keeps deep traversals' span volume bounded.
A layer's self time is its calls' duration minus the time spent in
nested wrapped calls, so the self times of all layers plus the
benchmark's own ``bench`` frames add up to the traced wall time.

Attribution is at the call boundary: work a layer does inside a
callback it hands to another layer (the engine's per-level closure
runs inside ``forward_sweep``) is charged to the layer that invoked
the callback.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: ``(layer, leaf, targets)``; a target is ``(module, attribute)`` where
#: the attribute is a function or ``Class.method``.  Functions imported
#: into another module are wrapped where the caller looks them up.
LAYERS = (
    ("graph", False, (("repro.graph.generators", "make_dataset"),
                      ("repro.service.daemon", "make_dataset"))),
    ("bc.preprocess", False, (("repro.gpusim.device", "fold_degree_one"),
                              ("repro.gpusim.device", "per_root_correction"),
                              ("repro.bc.preprocess", "fold_degree_one"))),
    ("gpusim.device", False, (("repro.gpusim.device", "Device.run_bc"),)),
    ("bc.engine", False, (("repro.bc.engine", "run_root"),)),
    ("bc.frontier", True, (("repro.bc.engine", "forward_sweep"),)),
    ("bc.accumulation", True, (("repro.bc.engine", "accumulate_level"),)),
    ("bc.batched", True, (("repro.bc.batched", "batched_dependencies"),)),
    ("bc.policies", True, tuple(
        ("repro.bc.policies", f"{cls}.decide")
        for cls in ("FixedPolicy", "HybridPolicy", "FrontierGuardPolicy"))),
    ("gpusim.cost", True, tuple(
        ("repro.gpusim.cost", f"CostModel.{kind}_{stage}")
        for kind in ("we", "ep", "vp", "gpu_fan", "batched")
        for stage in ("forward", "backward"))),
    ("verify", True, (("repro.verify.invariants", "RootChecker.check_root"),
                      ("repro.verify.invariants", "RootChecker.check_partial"))),
    ("observability", True, tuple(
        ("repro.observability.registry", f"MetricsRegistry.{m}")
        for m in ("inc", "observe", "record", "set_gauge", "span"))),
    ("client", False, (("repro.client.sdk", "BCClient.submit"),
                       ("repro.client.sdk", "BCClient.result"))),
    ("service.daemon", False, tuple(
        ("repro.service.daemon", f"BCService.{m}")
        for m in ("submit", "run_pending", "result"))),
    ("service.admission", False, (("repro.service.admission",
                                   "AdmissionController.decide"),)),
    ("service.scheduler", False, (("repro.service.scheduler",
                                   "Scheduler.execute"),)),
    ("service.journal", False, (("repro.service.journal",
                                 "JobJournal.append"),)),
    ("service.cache", False, (("repro.service.cache", "ResultCache.get"),
                              ("repro.service.cache", "ResultCache.put"))),
    ("service.storage", False, tuple(
        ("repro.service.storage", f"ServiceStorage.{m}")
        for m in ("append_line", "replace_atomic", "remove", "rename"))),
    ("telemetry", False, (("repro.telemetry.events",
                           "TelemetryLog.on_journal_record"),
                          ("repro.telemetry.events", "TelemetryLog.emit"))),
)

#: The benchmark's own frames: one per traced request (set-up, grid
#: pass, service job or read), holding the time between program calls.
BENCH = "bench"

LAYER_NAMES = (BENCH,) + tuple(layer for layer, _, _ in LAYERS)

#: Per-layer metrics beyond ``<layer>.calls`` / ``<layer>.self_s``.
EXTRA_METRICS = (
    "bc.frontier.levels",
    "bc.policies.hybrid_ep_share",
    "bc.policies.sampling_steady_roots",
    "service.cache.hit_ratio",
    "service.storage.bytes",
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class _Frame:
    __slots__ = ("layer", "start", "child", "span", "leaves")


class _TimedContext:
    """``MetricsRegistry.span`` result whose enter/exit are timed as
    observability work; the ``with`` body stays with its caller."""

    def __init__(self, tracer: "Tracer", cm):
        self._tracer = tracer
        self._cm = cm

    def __enter__(self):
        f = self._tracer._enter("observability", None)
        try:
            return self._cm.__enter__()
        finally:
            self._tracer._exit(f)

    def __exit__(self, *exc):
        f = self._tracer._enter("observability", None)
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._tracer._exit(f, count=0)


class Tracer:
    """Install with :meth:`installed`; group work with :meth:`request`."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.extra: dict = defaultdict(float)
        #: ``[name, layer, start, end, parent, request, leaves]`` rows.
        self.spans: list = []
        self._stack: list = []
        self._open_spans: list = []
        self._request = None

    # -- frames --------------------------------------------------------
    def _enter(self, layer: str, name) -> _Frame:
        f = _Frame()
        f.layer = layer
        f.child = 0.0
        f.span = None
        f.leaves = None
        if name is not None:
            parent = self._open_spans[-1].span if self._open_spans else None
            f.span = len(self.spans)
            f.leaves = {}
            self.spans.append([name, layer, 0.0, 0.0, parent,
                               self._request, f.leaves])
            self._open_spans.append(f)
        self._stack.append(f)
        f.start = time.perf_counter()
        return f

    def _exit(self, f: _Frame, count: int = 1) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - f.start
        own = dur - f.child
        self.calls[f.layer] += count
        self.self_s[f.layer] += own
        if self._stack:
            self._stack[-1].child += dur
        if f.span is not None:
            self._open_spans.pop()
            row = self.spans[f.span]
            row[2] = f.start
            row[3] = end
        elif self._open_spans:
            agg = self._open_spans[-1].leaves.setdefault(f.layer, [0, 0.0])
            agg[0] += count
            agg[1] += own

    @contextmanager
    def request(self, request_id: str):
        """One unit of benchmark work: a root ``bench`` span whose
        descendants all carry ``request_id``."""
        self._request = str(request_id)
        f = self._enter(BENCH, f"{BENCH} {request_id}")
        try:
            yield
        finally:
            self._exit(f)
            self._request = None

    # -- wrapping ------------------------------------------------------
    def _wrapper(self, layer: str, leaf: bool, label: str, fn, observe):
        name = None if leaf else f"{layer} {label}"
        enter, exit_ = self._enter, self._exit

        if label == "MetricsRegistry.span":
            @functools.wraps(fn)
            def timed_span(*args, **kwargs):
                return _TimedContext(self, fn(*args, **kwargs))
            return timed_span

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            f = enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(f)
            if observe is not None:
                observe(result, args, kwargs)
            return result
        return timed

    def _observers(self) -> dict:
        extra = self.extra

        def levels(result, args, kwargs):
            extra["bc.frontier.levels"] += len(result.levels)

        def hybrid(result, args, kwargs):
            extra["hybrid.decisions"] += 1
            extra["hybrid.ep"] += result.strategy == "edge-parallel"

        def device(result, args, kwargs):
            if result.strategy == "sampling":
                extra["bc.policies.sampling_steady_roots"] += (
                    result.num_roots - result.fixed_roots)

        def cache_get(result, args, kwargs):
            extra["cache.gets"] += 1
            extra["cache.hits"] += result is not None

        def written(result, args, kwargs):
            text = kwargs["text"] if "text" in kwargs else args[2]
            extra["service.storage.bytes"] += len(text)

        return {
            "repro.bc.engine:forward_sweep": levels,
            "repro.bc.policies:HybridPolicy.decide": hybrid,
            "repro.gpusim.device:Device.run_bc": device,
            "repro.service.cache:ResultCache.get": cache_get,
            "repro.service.storage:ServiceStorage.append_line": written,
            "repro.service.storage:ServiceStorage.replace_atomic": written,
        }

    @contextmanager
    def installed(self):
        """Wrap every layer target; restore the originals on exit."""
        observers = self._observers()
        restore = []
        try:
            for layer, leaf, targets in LAYERS:
                for module, attr in targets:
                    owner, name = _resolve(module, attr)
                    original = (owner.__dict__[name] if isinstance(owner, type)
                                else getattr(owner, name))
                    setattr(owner, name, self._wrapper(
                        layer, leaf, attr, original,
                        observers.get(f"{module}:{attr}")))
                    restore.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    # -- results -------------------------------------------------------
    def metrics(self) -> dict:
        """``<layer>.calls`` / ``<layer>.self_s`` for every layer plus
        :data:`EXTRA_METRICS`."""
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.calls"] = int(self.calls.get(layer, 0))
            out[f"{layer}.self_s"] = float(self.self_s.get(layer, 0.0))
        x = self.extra
        out["bc.frontier.levels"] = int(x["bc.frontier.levels"])
        out["bc.policies.hybrid_ep_share"] = (
            x["hybrid.ep"] / x["hybrid.decisions"] if x["hybrid.decisions"]
            else 0.0)
        out["bc.policies.sampling_steady_roots"] = int(
            x["bc.policies.sampling_steady_roots"])
        out["service.cache.hit_ratio"] = (
            x["cache.hits"] / x["cache.gets"] if x["cache.gets"] else 0.0)
        out["service.storage.bytes"] = int(x["service.storage.bytes"])
        return out

    def chrome_trace(self, title: str) -> dict:
        """The spans as a Chrome trace-event document (loads in Perfetto)."""
        t0 = min((row[2] for row in self.spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": title}}]
        for i, (name, layer, start, end, parent, request,
                leaves) in enumerate(self.spans):
            args = {"span": i, "parent": parent, "request": request}
            for leaf, (calls, own) in sorted(leaves.items()):
                args[f"{leaf}.calls"] = calls
                args[f"{leaf}.self_us"] = round(own * 1e6, 3)
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": round((start - t0) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3),
                           "pid": 1, "tid": 1, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"title": title}}
