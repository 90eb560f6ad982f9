"""Unit tests for the metrics registry, span clock and exporters."""

import json
import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    SpanClock,
    dumps,
    registry_to_dict,
    write_csv,
    write_json,
)


class ManualWall:
    """Injectable wall source: tests control time explicitly."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSpanClock:
    def test_elapsed_is_wall_plus_sim(self):
        wall = ManualWall()
        clock = SpanClock(wall=wall)
        wall.t = 2.0
        clock.advance(3.0, "compute")
        assert clock.wall_seconds() == 2.0
        assert clock.sim_seconds == 3.0
        assert clock.elapsed() == 5.0
        assert clock.now() == 5.0

    def test_components_accumulate_separately(self):
        clock = SpanClock(wall=lambda: 0.0)
        clock.advance(1.0, "compute")
        clock.advance(0.5, "compute")
        clock.advance(0.25, "backoff")
        assert clock.component_seconds("compute") == 1.5
        assert clock.component_seconds("backoff") == 0.25
        assert clock.component_seconds("missing") == 0.0
        assert clock.components() == {"compute": 1.5, "backoff": 0.25}
        assert clock.sim_seconds == 1.75

    def test_rejects_negative_and_nan(self):
        clock = SpanClock(wall=lambda: 0.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.advance(float("nan"))


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2.5)
        assert reg.counter("a").value == 3.5

    def test_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("comm.bytes", 10, op="bcast")
        reg.inc("comm.bytes", 20, op="reduce")
        assert reg.counter("comm.bytes", op="bcast").value == 10
        assert reg.counter("comm.bytes", op="reduce").value == 20
        assert len(reg.counters()) == 2

    def test_labels_may_shadow_parameter_names(self):
        # Metric names are positional-only, so "name"/"value" are legal
        # label keys (the CLI labels its experiment spans name=...).
        reg = MetricsRegistry()
        reg.inc("c", 2, name="x", value="y")
        assert reg.counter("c", name="x", value="y").value == 2
        with reg.span("s", name="x"):
            pass
        assert reg.root_spans[0].labels == {"name": "x"}

    def test_monotonic(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("a", -1)
        with pytest.raises(ValueError):
            reg.inc("a", float("nan"))


class TestGauges:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("pool.workers", 4)
        reg.set_gauge("pool.workers", 8)
        assert reg.gauge("pool.workers").value == 8


class TestHistograms:
    def test_bucket_placement_and_inf_tail(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)   # <= 1
        h.observe(10.0)  # <= 10 (upper bound inclusive)
        h.observe(99.0)  # +inf tail
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.total == pytest.approx(109.5)

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(4.0, 2.0))

    def test_nan_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.observe("h", float("nan"))

    def test_wall_flag_sticky_per_series(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.1, wall=True)
        assert reg.histogram("lat").wall is True


class TestBulkUpdates:
    """``inc_all``/``observe_all`` are the one-at-a-time calls, batched."""

    VALUES = [0.1, 3.0, 1e16, 1.0, 0.2, 7.5, 1e-3, 4.0, 16.0, 1e9]

    def test_inc_all_adds_in_order(self):
        one, bulk = MetricsRegistry(), MetricsRegistry()
        for v in self.VALUES:
            one.inc("c", v)
        bulk.counter("c").inc_all(self.VALUES)
        assert bulk.counter("c").value == one.counter("c").value
        with pytest.raises(ValueError):
            bulk.counter("c").inc_all([1.0, -1.0])

    def test_observe_all_matches_observe(self):
        one, bulk = MetricsRegistry(), MetricsRegistry()
        values = self.VALUES + [0.0, 1.0, 4.0 ** 15, 4.0 ** 16, -2.0]
        for v in values:
            one.observe("h", v)
        bulk.histogram("h").observe_all(values)
        a, b = one.histogram("h"), bulk.histogram("h")
        assert (a.counts, a.count, a.total) == (b.counts, b.count, b.total)
        with pytest.raises(ValueError):
            bulk.histogram("h").observe_all([float("nan")])

    def test_rejected_value_leaves_earlier_values_applied(self):
        one, bulk = MetricsRegistry(), MetricsRegistry()
        one.inc("c", 1.0)
        one.observe("h", 3.0)
        with pytest.raises(ValueError):
            bulk.counter("c").inc_all([1.0, -1.0, 2.0])
        with pytest.raises(ValueError):
            bulk.histogram("h").observe_all([3.0, float("nan"), 5.0])
        assert bulk.counter("c").value == one.counter("c").value
        a, b = one.histogram("h"), bulk.histogram("h")
        assert (a.counts, a.count, a.total) == (b.counts, b.count, b.total)


def _bisect_loop(hist, values):
    """The per-value reference: ``(counts, count, total)`` after
    observing ``values`` one by one up to the first NaN."""
    counts, count, total = list(hist.counts), hist.count, hist.total
    for value in values:
        value = float(value)
        if math.isnan(value):
            break
        counts[bisect_left(hist.buckets, value)] += 1
        count += 1
        total += value
    return counts, count, total


#: Bucket bounds themselves, infinities, zeros, negatives, huge and
#: tiny magnitudes, and integers.
OBSERVED = st.one_of(
    st.sampled_from(DEFAULT_BUCKETS),
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300]),
    st.floats(allow_nan=False),
    st.integers(-10**6, 10**6))


@given(st.lists(OBSERVED, max_size=40), st.lists(OBSERVED, max_size=5),
       st.none() | st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_observe_all_is_the_bisect_left_loop(values, before, nan_at):
    """``observe_all`` buckets as ``bisect_left`` does and adds the
    values to ``total`` in order; with a NaN, the values before it are
    applied and then ``ValueError`` is raised."""
    hist = MetricsRegistry().histogram("h")
    for value in before:
        hist.observe(value)
    if nan_at is not None:
        values.insert(min(nan_at, len(values)), math.nan)
    counts, count, total = _bisect_loop(hist, values)
    if nan_at is None:
        hist.observe_all(values)
    else:
        with pytest.raises(ValueError, match="NaN"):
            hist.observe_all(values)
    assert hist.counts == counts and hist.count == count
    assert [type(c) for c in hist.counts] == [int] * len(counts)
    assert type(hist.count) is int and type(hist.total) is float
    assert hist.total == total or (math.isnan(hist.total)
                                   and math.isnan(total))


class TestDeferredEvents:
    """Deferred blocks expand in program order into the dicts eager
    ``record`` calls would have appended, on every read."""

    @staticmethod
    def _block(tag, n):
        return lambda: [{"event": "block", "tag": tag, "i": i}
                        for i in range(n)]

    def test_reads_mid_run_and_later_match_the_eager_order(self):
        eager, lazy = MetricsRegistry(), MetricsRegistry()
        calls = []

        def log(tag, n):
            block = self._block(tag, n)
            for event in block():
                eager.record(event.pop("event"), **event)

            def counted():
                calls.append(tag)
                return block()
            lazy.defer(counted)

        def record(kind, **fields):
            eager.record(kind, **fields)
            lazy.record(kind, **fields)

        record("run.params", strategy="hybrid")
        log("a", 2)
        record("comm.op", op="bcast")
        log("b", 0)
        log("c", 3)
        assert calls == []  # nothing built before the first read
        assert lazy.events == eager.events
        first = list(lazy.events)
        assert calls == ["a", "b", "c"]
        record("decision.sampling", chose=True)
        log("d", 1)
        record("resilience.retry", rank=1)
        assert lazy.events == eager.events
        assert lazy.events[:len(first)] == first
        assert calls == ["a", "b", "c", "d"]  # each block built once
        assert [e["event"] for e in lazy.events] == [
            "run.params", "block", "block", "comm.op", "block", "block",
            "block", "decision.sampling", "block", "resilience.retry"]

    def test_null_registry_drops_blocks(self):
        reg = NullRegistry()
        reg.defer(lambda: pytest.fail("a null registry built a block"))
        assert reg.events == []

    def test_drop_history_keeps_totals_and_the_open_span(self):
        reg = MetricsRegistry(clock=SpanClock(wall=lambda: 0.0))
        with reg.span("done"):
            reg.record("run.params", strategy="hybrid")
        with reg.span("serving") as serving:
            with reg.span("job"):
                reg.inc("jobs")
                reg.observe("latency", 2.0)
            reg.defer(lambda: pytest.fail("a dropped block was built"))
            reg.drop_history()
            assert reg.events == []
            assert reg.root_spans == [serving]
            assert [c.name for c in serving.children] == ["job"]
        assert reg.counter("jobs").value == 1.0
        assert reg.histogram("latency").count == 1
        reg.record("later")
        assert reg.events == [{"event": "later"}]


class TestSpans:
    def test_nesting_builds_a_tree(self):
        wall = ManualWall()
        reg = MetricsRegistry(clock=SpanClock(wall=wall))
        with reg.span("outer", run="x"):
            wall.t = 1.0
            with reg.span("inner"):
                wall.t = 3.0
            wall.t = 4.0
        assert len(reg.root_spans) == 1
        outer = reg.root_spans[0]
        assert outer.name == "outer" and outer.labels == {"run": "x"}
        assert outer.duration == pytest.approx(4.0)
        (inner,) = outer.children
        assert inner.start == pytest.approx(1.0)
        assert inner.end == pytest.approx(3.0)
        assert not inner.children

    def test_span_timeline_includes_sim_time(self):
        reg = MetricsRegistry(clock=SpanClock(wall=lambda: 0.0))
        with reg.span("s"):
            reg.clock.advance(2.0, "compute")
        assert reg.root_spans[0].duration == pytest.approx(2.0)

    def test_span_closed_on_exception(self):
        reg = MetricsRegistry(clock=SpanClock(wall=lambda: 0.0))
        with pytest.raises(RuntimeError):
            with reg.span("s"):
                raise RuntimeError("boom")
        assert reg.root_spans[0].end is not None
        assert not reg._span_stack


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        reg = NullRegistry()
        reg.inc("a", 5)
        reg.set_gauge("g", 1)
        reg.observe("h", 2)
        with reg.span("s") as s:
            assert s.duration == 0.0
        reg.counter("x").inc(5)
        reg.gauge("y").set(3)
        reg.histogram("z").observe(2)
        assert reg.counter("x").value == 0.0
        assert reg.gauge("y").value == 0.0
        assert reg.histogram("z").count == 0
        assert reg.counters() == []
        assert reg.gauges() == []
        assert reg.histograms() == []
        assert reg.root_spans == []

    def test_shared_singleton_flags(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_null_span_reusable(self):
        with NULL_REGISTRY.span("a") as s1:
            pass
        with NULL_REGISTRY.span("b") as s2:
            pass
        assert s1 is s2


class TestExport:
    def _populated(self):
        reg = MetricsRegistry(clock=SpanClock(wall=lambda: 0.0))
        reg.inc("c", 2, kind="x")
        reg.set_gauge("g", 7)
        reg.observe("sim_h", 3.0, buckets=(1.0, 4.0))
        reg.observe("wall_h", 0.2, buckets=(1.0,), wall=True)
        with reg.span("top"):
            reg.clock.advance(1.0, "compute")
        return reg

    def test_schema_and_sections(self):
        doc = registry_to_dict(self._populated())
        assert doc["schema"] == "repro.observability/v1"
        assert [c["name"] for c in doc["counters"]] == ["c"]
        assert doc["counters"][0]["labels"] == {"kind": "x"}
        assert [h["name"] for h in doc["histograms"]] == ["sim_h"]
        # Wall-derived data lives only under "timing".
        assert [h["name"] for h in doc["timing"]["histograms"]] == ["wall_h"]
        assert doc["timing"]["sim_components"] == {"compute": 1.0}
        assert doc["timing"]["spans"][0]["name"] == "top"

    def test_export_method_matches_function(self):
        reg = self._populated()
        assert reg.export() == registry_to_dict(reg)

    def test_dumps_is_canonical(self):
        doc = registry_to_dict(self._populated())
        assert dumps(doc) == dumps(json.loads(dumps(doc)))

    def test_write_json_accepts_registry_and_dict(self, tmp_path):
        reg = self._populated()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, reg)
        write_json(p2, registry_to_dict(reg))
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["schema"] == "repro.observability/v1"

    def test_write_csv_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, self._populated())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kind,name,labels,field,value"
        kinds = {ln.split(",")[0] for ln in lines[1:]}
        assert kinds == {"counter", "gauge", "histogram", "wall_histogram"}
        # One row per bucket + inf tail + count + sum for sim_h.
        sim_rows = [ln for ln in lines if ln.startswith("histogram,sim_h")]
        assert len(sim_rows) == 2 + 1 + 2
