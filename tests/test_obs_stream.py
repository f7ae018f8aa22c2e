"""Tests for obs v2: event bus, percentiles, progress, and the Chrome
trace exporter."""

import json

from repro import obs
from repro.obs import (
    CallbackSink,
    Histogram,
    Registry,
    RingBufferSink,
)


class TestEventBus:
    def test_no_sinks_no_emission(self):
        reg = Registry()
        assert reg.sinks == []
        reg.count("c")
        reg.gauge("g", 1.0)  # must not raise; nothing to observe

    def test_events_stream_to_ring_buffer(self):
        reg = Registry()
        ring = RingBufferSink()
        reg.add_sink(ring)
        with reg.span("outer", u=2):
            reg.count("c", 2)
            reg.gauge("g", 1.5)
            reg.observe("h", 3.0)
        kinds = [e["type"] for e in ring.events]
        assert kinds == ["span_start", "counter", "gauge", "observe",
                        "span_end"]
        for event in ring.events:
            assert event["pid"] == reg.pid
            assert isinstance(event["ts"], float)
            assert "name" in event
        counter = next(e for e in ring.events if e["type"] == "counter")
        assert counter["delta"] == 2 and counter["value"] == 2
        end = ring.events[-1]
        assert end["name"] == "outer" and end["dur_s"] >= 0.0

    def test_ring_buffer_capacity(self):
        ring = RingBufferSink(capacity=4)
        for i in range(10):
            ring.emit({"type": "counter", "i": i})
        assert len(ring) == 4
        assert [e["i"] for e in ring.events] == [6, 7, 8, 9]

    def test_callback_sink_filters_kinds(self):
        seen = []
        reg = Registry()
        reg.add_sink(CallbackSink(seen.append, kinds={"gauge"}))
        reg.count("c")
        reg.gauge("g", 2.0)
        assert [e["type"] for e in seen] == ["gauge"]

    def test_count_many_streams_per_name(self):
        reg = Registry()
        ring = RingBufferSink()
        reg.add_sink(ring)
        reg.count_many({"a": 1, "b": 2}, prefix="pre.")
        assert {e["name"] for e in ring.events} == {"pre.a", "pre.b"}


class TestPercentiles:
    def test_exact_under_cap(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        d = h.as_dict()
        assert (d["p50"], d["p90"], d["p99"]) == (50.0, 90.0, 99.0)

    def test_empty_percentiles_are_none(self):
        d = Histogram().as_dict()
        assert d["p50"] is None and d["p99"] is None

    def test_deterministic_beyond_cap(self):
        a, b = Histogram(), Histogram()
        values = [float((i * 37) % 1000) for i in range(2000)]
        for v in values:
            a.observe(v)
            b.observe(v)
        assert a.as_dict() == b.as_dict()
        assert len(a.samples) == a.cap

    def test_render_tree_shows_percentiles(self):
        reg = Registry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("h", v)
        assert "p50=2" in obs.render_tree(reg)


class TestProgress:
    def test_emits_over_bus_and_sets_gauge(self):
        reg = Registry()
        ring = RingBufferSink()
        reg.add_sink(ring)
        with reg.progress("work", total=3, min_interval=0.0) as prog:
            for _ in range(3):
                prog.advance()
        events = [e for e in ring.events if e["type"] == "progress"]
        assert events, "no progress events emitted"
        assert events[-1]["final"] is True
        assert events[-1]["done"] == 3 and events[-1]["total"] == 3
        assert events[-1]["rate"] is None or events[-1]["rate"] > 0
        assert reg.gauges["progress.work"] == 3

    def test_throttled_without_sinks(self):
        reg = Registry()
        with reg.progress("quiet", total=5) as prog:
            for _ in range(5):
                prog.advance()
        assert reg.gauges["progress.quiet"] == 5

    def test_ambient_helper_null_when_disabled(self):
        prog = obs.progress("nothing", total=10)
        assert prog is obs.NULL_PROGRESS
        prog.advance()
        prog.close()  # no-ops

    def test_ambient_helper_live_when_collecting(self):
        with obs.collecting() as reg:
            with obs.progress("live", total=2) as prog:
                prog.advance(2)
        assert reg.gauges["progress.live"] == 2


class TestChromeTrace:
    def _registry_with_events(self):
        reg = Registry()
        ring = RingBufferSink()
        reg.add_sink(ring)
        with reg.span("root", kind="test"):
            reg.count("hits", 2)
            reg.gauge("util", 0.5)
            with reg.span("child"):
                pass
        reg.emit_series("busy", [(0, 1), (1, 3), (2, 0)])
        return reg, ring

    def test_schema_round_trip(self, tmp_path):
        reg, ring = self._registry_with_events()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(reg, path, ring.events)
        rows = json.loads(path.read_text())
        assert isinstance(rows, list) and rows
        for row in rows:
            for key in ("ts", "dur", "pid", "tid", "name"):
                assert key in row, f"{row.get('ph')} event missing {key}"
        span_names = [r["name"] for r in rows if r["ph"] == "X"]
        assert sorted(span_names) == ["child", "root"]
        counters = [r for r in rows if r["ph"] == "C"]
        assert {r["name"] for r in counters} >= {"hits", "util", "busy"}
        series = [r for r in counters if r["name"] == "busy"]
        assert [(r["ts"], r["args"]["value"]) for r in series] == [
            (0.0, 1), (1.0, 3), (2.0, 0)
        ]
        metas = [r for r in rows if r["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} >= {
            f"parent (pid {reg.pid})", "series (caller timebase)"
        }

    def test_timestamps_rebased_to_zero(self):
        reg, ring = self._registry_with_events()
        rows = obs.chrome_trace_events(reg, ring.events)
        span_rows = [r for r in rows if r["ph"] == "X"]
        assert min(r["ts"] for r in span_rows) == 0.0
        root = next(r for r in span_rows if r["name"] == "root")
        child = next(r for r in span_rows if r["name"] == "child")
        assert root["ts"] <= child["ts"]
        assert root["dur"] >= child["dur"]

    def test_every_span_on_the_registry_track(self):
        # A ``pid`` attr does not move a span to a track of its own.
        reg, ring = self._registry_with_events()
        with reg.span("stamped", pid=reg.pid + 1):
            pass
        rows = obs.chrome_trace_events(reg, ring.events)
        assert {r["pid"] for r in rows if r["ph"] == "X"} == {reg.pid}
        assert {r["args"]["name"] for r in rows if r["ph"] == "M"} == {
            f"parent (pid {reg.pid})", "series (caller timebase)"
        }
