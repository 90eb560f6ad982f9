"""Metrics registry: counters, gauges, histograms, and timed spans.

One :class:`MetricsRegistry` collects everything a run wants to report:

* **Counters** — monotonically increasing totals (levels processed,
  bytes moved, incidents observed).
* **Gauges** — last-write-wins values (makespan cycles, pool size).
* **Histograms** — fixed-bucket distributions (frontier sizes, chunk
  latencies).  Buckets are upper bounds; an implicit ``+inf`` bucket
  catches the tail.
* **Spans** — nested timed intervals via the :meth:`MetricsRegistry.span`
  context manager, timestamped on a :class:`~repro.observability.clock.SpanClock`
  so wall and charged simulated time share one timeline.
* **Events** — an append-only structured log via :meth:`MetricsRegistry.record`:
  one dict per occurrence, in program order.  The decision-trace
  exporter (:mod:`repro.observability.trace`) reads this stream to
  reconstruct *why* each strategy decision was taken; events must carry
  only simulated/deterministic values so the ``repro.trace/v1``
  document stays byte-reproducible.  A producer with many events that
  are usually never read (a root's per-level decision records) hands
  over a *deferred block* instead (:meth:`MetricsRegistry.defer`): a
  callable that builds them.  The first read of
  :attr:`MetricsRegistry.events` after it expands every pending block
  in program order, so readers see exactly the dicts eager
  :meth:`~MetricsRegistry.record` calls would have appended.

Every instrument accepts keyword **labels**; the same name with
different labels is a distinct series (``comm.bytes{op=bcast}`` vs
``comm.bytes{op=reduce}``).

Instrumented library code takes an optional registry defaulting to
:data:`NULL_REGISTRY`, a shared no-op whose methods do nothing — the
hot paths stay allocation-free and branch-free when observability is
off (guarded by the overhead test in
``tests/observability/test_overhead.py``).

Histograms observing *wall-clock-derived* values must be created with
``wall=True``: the exporter segregates them under the ``timing`` key so
that everything outside ``timing`` is bit-reproducible across runs (the
determinism the profile tests lock down).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field

from .clock import SpanClock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets: powers of four spanning frontier sizes,
#: byte counts and (milli)second latencies reasonably well.
DEFAULT_BUCKETS = tuple(float(4**k) for k in range(-4, 16))


def _label_key(labels: dict) -> tuple:
    if not labels:  # most one-shot calls: nothing to sort
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonic total; :meth:`inc` rejects negative increments."""

    name: str
    labels: dict
    value: float = 0.0

    def inc(self, value: float = 1.0) -> None:
        value = float(value)
        if not value >= 0.0:  # also rejects NaN
            raise ValueError(
                f"counter {self.name!r} cannot decrease by {value!r}")
        self.value += value

    def inc_all(self, values) -> None:
        """:meth:`inc` by each of ``values`` in turn: the same float
        additions in the same order, in one call.  A rejected value
        leaves the counter as the values before it left it."""
        for value in values:
            self.inc(value)


@dataclass
class Gauge:
    """Last-write-wins value."""

    name: str
    labels: dict
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` counts observations
    ``<= buckets[i]``; ``counts[-1]`` is the implicit ``+inf`` tail."""

    name: str
    labels: dict
    buckets: tuple
    wall: bool = False
    counts: list = field(default_factory=list)
    count: int = 0
    total: float = 0.0

    def __post_init__(self):
        bounds = tuple(float(b) for b in self.buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be non-empty and ascending")
        self.buckets = bounds
        if not self.counts:
            self.counts = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        # The first bucket with value <= bound; past the last one, the
        # +inf tail.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    def observe_all(self, values) -> None:
        """:meth:`observe` each of ``values`` in turn, in one call.  A
        rejected value leaves the histogram as the values before it left
        it."""
        for value in values:
            self.observe(value)


@dataclass
class Span:
    """One timed interval; children are spans opened while it was open."""

    name: str
    labels: dict
    start: float
    end: float | None = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


class MetricsRegistry:
    """Collects counters, gauges, histograms and spans for one run."""

    enabled = True

    def __init__(self, clock: SpanClock | None = None):
        self.clock = clock if clock is not None else SpanClock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self.root_spans: list = []
        self._span_stack: list = []
        self._events: list = []
        #: Event dicts and deferred blocks since :attr:`events` was last
        #: read, in program order.
        self._pending: list = []

    # -- instrument accessors ------------------------------------------
    def counter(self, name: str, /, **labels) -> Counter:
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, dict(labels))
        return inst

    def gauge(self, name: str, /, **labels) -> Gauge:
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, dict(labels))
        return inst

    def histogram(self, name: str, /, buckets=DEFAULT_BUCKETS, wall: bool = False,
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                name, dict(labels), tuple(buckets), wall=bool(wall)
            )
        return inst

    # -- one-shot conveniences (what instrumented code calls) ----------
    def inc(self, name: str, value: float = 1.0, /, **labels) -> None:
        self.counter(name, **labels).inc(value)

    def set_gauge(self, name: str, value: float, /, **labels) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, /, buckets=DEFAULT_BUCKETS,
                wall: bool = False, **labels) -> None:
        self.histogram(name, buckets=buckets, wall=wall, **labels).observe(value)

    def record(self, kind: str, /, **fields) -> None:
        """Append one structured event ``{"event": kind, **fields}``.

        ``kind`` is positional-only so ``event`` itself is a legal field
        name.  Field values must be JSON-serialisable and — for the
        trace-determinism guarantee — derived from simulated state only
        (no wall-clock readings)."""
        event = {"event": kind, **fields}
        if self._pending:  # keep program order behind deferred blocks
            self._pending.append(event)
        else:
            self._events.append(event)

    def defer(self, block) -> None:
        """Append the events ``block()`` returns (a list of dicts shaped
        like :meth:`record`'s), built when :attr:`events` is next read.

        ``block`` must return the same events whenever it is called, so
        it may only close over values that do not change."""
        self._pending.append(block)

    @property
    def events(self) -> list:
        """Structured event log, in program order (see :meth:`record`
        and :meth:`defer`)."""
        if self._pending:
            pending, self._pending = self._pending, []
            for item in pending:
                if isinstance(item, dict):
                    self._events.append(item)
                else:
                    self._events.extend(item())
        return self._events

    def drop_history(self) -> None:
        """Forget the events (deferred blocks unbuilt) and the closed
        root spans; totals and open spans stay.  The service daemon calls
        it at each terminal job state, so its registry does not grow."""
        self._events = []
        self._pending = []
        self.root_spans = [s for s in self.root_spans if s.end is None]

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, /, **labels):
        """Open a timed span; spans opened inside nest as children."""
        s = Span(name=name, labels=dict(labels), start=self.clock.now())
        parent = self._span_stack[-1] if self._span_stack else None
        (parent.children if parent is not None else self.root_spans).append(s)
        self._span_stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock.now()
            self._span_stack.pop()

    # -- introspection -------------------------------------------------
    def counters(self) -> list:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> list:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> list:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def export(self) -> dict:
        """Stable-schema dict; see :mod:`repro.observability.export`."""
        from .export import registry_to_dict

        return registry_to_dict(self)


class _NullSpan:
    """Reusable no-op context manager (also a valid, inert ``Span``)."""

    name = ""
    labels: dict = {}
    start = 0.0
    end = 0.0
    children: list = []
    duration = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _NullCounter(Counter):
    def inc(self, value=1.0) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value) -> None:
        pass


_NULL_COUNTER = _NullCounter("", {})
_NULL_GAUGE = _NullGauge("", {})
_NULL_HISTOGRAM = _NullHistogram("", {}, DEFAULT_BUCKETS)


class NullRegistry(MetricsRegistry):
    """No-op registry: every instrument call does nothing.

    Module-level :data:`NULL_REGISTRY` is the default ``metrics``
    argument of every instrumented function, making observability
    zero-cost when nobody asked to observe.  Its accessors hand out
    shared inert instruments, so code that resolves an instrument once
    and updates it directly records nothing either.
    """

    enabled = False

    def __init__(self):
        super().__init__(clock=SpanClock(wall=lambda: 0.0))

    def counter(self, name, /, **labels):
        return _NULL_COUNTER

    def gauge(self, name, /, **labels):
        return _NULL_GAUGE

    def histogram(self, name, /, buckets=DEFAULT_BUCKETS, wall=False, **labels):
        return _NULL_HISTOGRAM

    def inc(self, name, value=1.0, /, **labels):
        pass

    def set_gauge(self, name, value, /, **labels):
        pass

    def observe(self, name, value, /, buckets=DEFAULT_BUCKETS, wall=False, **labels):
        pass

    def record(self, kind, /, **fields):
        pass

    def defer(self, block):
        pass

    def span(self, name, /, **labels):
        return _NULL_SPAN


#: Shared process-wide no-op registry.
NULL_REGISTRY = NullRegistry()
