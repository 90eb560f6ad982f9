"""Unit tests for the metrics registry, span clock and exporters."""

import json

import pytest

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
