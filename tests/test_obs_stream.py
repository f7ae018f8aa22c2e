"""Tests for obs v2: event bus, percentiles, progress, cross-process
aggregation, and the Chrome trace exporter."""

import io
import json

from repro import obs
from repro.obs import (
    CallbackSink,
    Histogram,
    JsonlSink,
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

    def test_jsonl_sink_writes_parseable_lines(self):
        buf = io.StringIO()
        reg = Registry()
        reg.add_sink(JsonlSink(buf))
        reg.count("x")
        with reg.span("s"):
            pass
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [l["type"] for l in lines] == [
            "counter", "span_start", "span_end"
        ]

    def test_jsonl_sink_owns_path(self, tmp_path):
        path = tmp_path / "bus.jsonl"
        reg = Registry()
        sink = JsonlSink(path)
        reg.add_sink(sink)
        reg.count("x", 3)
        reg.remove_sink(sink)  # closes owned file
        (record,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert record["value"] == 3

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

    def test_merge_matches_unpartitioned_under_cap(self):
        whole = Histogram()
        left, right = Histogram(), Histogram()
        values = [float(v) for v in range(200)]
        for v in values:
            whole.observe(v)
        for v in values[:77]:
            left.observe(v)
        for v in values[77:]:
            right.observe(v)
        left.merge(right)
        assert left.as_dict() == whole.as_dict()

    def test_merge_aggregates_exactly(self):
        left, right = Histogram(), Histogram()
        for v in (1.0, 5.0):
            left.observe(v)
        for v in (2.0, 10.0):
            right.observe(v)
        left.merge(right)
        assert (left.count, left.total, left.min, left.max) == (4, 18.0, 1.0,
                                                                10.0)

    def test_state_round_trip(self):
        h = Histogram()
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        back = Histogram.from_state(
            json.loads(json.dumps(h.state_dict()))
        )
        assert back.as_dict() == h.as_dict()

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


class TestDeltaMerge:
    def _worker_like_registry(self):
        reg = Registry()
        with reg.span("work", case=1):
            reg.count("jobs", 3)
            reg.gauge("level", 2.5)
            reg.observe("seconds", 0.5)
        return reg

    def test_delta_is_json_ready(self):
        delta = self._worker_like_registry().delta()
        back = json.loads(json.dumps(delta))
        assert back["counters"] == {"jobs": 3}
        assert back["spans"][0]["name"] == "work"

    def test_merge_combines_all_metric_kinds(self):
        parent = Registry()
        parent.count("jobs", 1)
        parent.observe("seconds", 1.5)
        delta = self._worker_like_registry().delta()
        parent.merge_delta(delta)
        assert parent.counters["jobs"] == 4
        assert parent.gauges["level"] == 2.5
        h = parent.histograms["seconds"]
        assert h.count == 2 and h.max == 1.5

    def test_merge_grafts_spans_under_open_span_with_pid(self):
        parent = Registry()
        delta = self._worker_like_registry().delta()
        with parent.span("parent"):
            parent.merge_delta(delta, attrs={"worker": 7})
        (root,) = parent.roots
        (graft,) = root.children
        assert graft.name == "work"
        assert graft.attrs["pid"] == delta["pid"]
        assert graft.attrs["worker"] == 7
        assert graft.attrs["case"] == 1

    def test_merge_order_independent_aggregates(self):
        deltas = [self._worker_like_registry().delta() for _ in range(3)]
        a, b = Registry(), Registry()
        for d in deltas:
            a.merge_delta(d)
        for d in reversed(deltas):
            b.merge_delta(d)
        assert a.counters == b.counters
        assert a.histograms["seconds"].as_dict() == (
            b.histograms["seconds"].as_dict()
        )


class TestCrossProcessDeterminism:
    def _search_metrics(self, workers):
        from repro.expansion.theorem31 import matmul_bit_level
        from repro.mapping import designs
        from repro.mapping.engine import SearchConfig, run_search

        alg = matmul_bit_level(2, 2, "II")
        with obs.collecting() as reg:
            found = run_search(
                alg, {"u": 2, "p": 2}, designs.fig4_primitives(2),
                SearchConfig(target_space_dim=2, block_values=[2],
                             max_candidates=2, workers=workers),
            )
        return found, reg

    def test_same_trace_modulo_worker_id(self):
        found_1, reg_1 = self._search_metrics(workers=1)
        found_2, reg_2 = self._search_metrics(workers=2)
        assert [(c.time, c.processors) for c in found_1] == (
            [(c.time, c.processors) for c in found_2]
        )
        # Counters: identical except the worker-local memo's hit/miss
        # split, whose sum (lookups) is partition-invariant.
        c1, c2 = dict(reg_1.counters), dict(reg_2.counters)
        split = ("mapping.cache_hits", "mapping.cache_misses")
        assert sum(c1[k] for k in split) == sum(c2[k] for k in split)
        for k in split:
            c1.pop(k), c2.pop(k)
        assert c1 == c2
        # Histograms: same keys and observation counts (values are wall
        # times and legitimately differ).
        assert set(reg_1.histograms) == set(reg_2.histograms)
        for name, h1 in reg_1.histograms.items():
            assert h1.count == reg_2.histograms[name].count
        # Spans: same name multiset; worker spans carry pid attribution.
        names = lambda reg: sorted(s.name for s in reg.iter_spans())
        assert names(reg_1) == names(reg_2)
        worker_pids = {
            s.attrs["pid"] for s in reg_2.iter_spans() if "pid" in s.attrs
        }
        assert worker_pids and reg_2.pid not in worker_pids
        # Progress gauge: same number of candidates merged/evaluated.
        assert reg_1.gauges["progress.mapping.spaces"] == (
            reg_2.gauges["progress.mapping.spaces"]
        )


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

    def test_merged_worker_spans_get_own_tracks(self):
        parent = Registry()
        worker = Registry()
        worker.pid = parent.pid + 1  # simulate another process
        with worker.span("mapping.evaluate_space"):
            pass
        with parent.span("mapping.search_designs"):
            parent.merge_delta(worker.delta())
        rows = obs.chrome_trace_events(parent)
        by_name = {r["name"]: r for r in rows if r["ph"] == "X"}
        assert by_name["mapping.search_designs"]["pid"] == parent.pid
        assert by_name["mapping.evaluate_space"]["pid"] == worker.pid
