"""Tests for obs v2: percentiles, the loops' progress gauges, and the
Chrome trace exporter."""

import json

from repro import obs
from repro.obs import Histogram, Registry


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


class TestProgressGauges:
    """Each instrumented loop reports how far it got as one
    ``progress.<name>`` gauge, set when the loop ends."""

    @staticmethod
    def _search(**config):
        from repro.expansion.theorem31 import matmul_bit_level
        from repro.mapping import designs
        from repro.mapping.engine import SearchConfig, run_search

        with obs.collecting() as reg:
            found = run_search(
                matmul_bit_level(2, 2), {"u": 2, "p": 2},
                designs.fig4_primitives(2),
                SearchConfig(block_values=[2], **config),
            )
        return len(found), reg.gauges["progress.mapping.spaces"]

    def test_search_counts_the_spaces_it_evaluated(self):
        # The plan holds 1,475 spaces.  A search that stops once it has
        # ``stop_after`` designs counts up to the space that completed them.
        assert self._search(max_candidates=None) == (156, 1475)
        assert self._search() == (10, 384)
        assert self._search(max_candidates=1, overcollect=1) == (1, 40)

    def test_verify_counts_each_oracles_cases(self):
        from repro.verify import VerifyConfig, run_verification

        with obs.collecting() as reg:
            run_verification(
                VerifyConfig(seed=0, cases=3, oracles=("theorem31", "search"))
            )
        progress = {
            name: value for name, value in reg.gauges.items()
            if name.startswith("progress.verify.")
        }
        assert progress == {
            "progress.verify.theorem31": 3, "progress.verify.search": 3,
        }

    def test_e7_counts_its_cases(self):
        from repro.experiments import e7_analysis_cost

        data = e7_analysis_cost.run(cases=((2, 2), (2, 3)), verify=False)
        assert data["metrics"]["gauges"]["progress.e7.cases"] == 2


class TestChromeTrace:
    def _registry(self):
        reg = Registry()
        with reg.span("root", kind="test"):
            reg.count("hits", 2)
            reg.gauge("util", 0.5)
            with reg.span("child"):
                pass
            reg.count("hits")
        return reg

    def test_schema_round_trip(self, tmp_path):
        reg = self._registry()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(reg, path)
        rows = json.loads(path.read_text())
        assert isinstance(rows, list) and rows
        for row in rows:
            for key in ("ts", "dur", "pid", "tid", "name"):
                assert key in row, f"{row.get('ph')} event missing {key}"
        span_names = [r["name"] for r in rows if r["ph"] == "X"]
        assert sorted(span_names) == ["child", "root"]
        # One sample per counter and gauge: its final value, at the end
        # of the last span.
        root = next(r for r in rows if r["name"] == "root")
        counters = [r for r in rows if r["ph"] == "C"]
        assert [(r["cat"], r["name"], r["args"]["value"], r["ts"])
                for r in counters] == [
            ("counter", "hits", 3, root["ts"] + root["dur"]),
            ("gauge", "util", 0.5, root["ts"] + root["dur"]),
        ]
        metas = [r for r in rows if r["ph"] == "M"]
        assert [m["args"]["name"] for m in metas] == [
            f"parent (pid {reg.pid})"
        ]

    def test_timestamps_rebased_to_zero(self):
        rows = obs.chrome_trace_events(self._registry())
        span_rows = [r for r in rows if r["ph"] == "X"]
        assert min(r["ts"] for r in span_rows) == 0.0
        root = next(r for r in span_rows if r["name"] == "root")
        child = next(r for r in span_rows if r["name"] == "child")
        assert root["ts"] <= child["ts"]
        assert root["dur"] >= child["dur"]

    def test_every_span_on_the_registry_track(self):
        # A ``pid`` attr does not move a span to a track of its own.
        reg = self._registry()
        with reg.span("stamped", pid=reg.pid + 1):
            pass
        rows = obs.chrome_trace_events(reg)
        assert {r["pid"] for r in rows} == {reg.pid}
        assert {r["args"]["name"] for r in rows if r["ph"] == "M"} == {
            f"parent (pid {reg.pid})"
        }
