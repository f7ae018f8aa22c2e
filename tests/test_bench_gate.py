"""Tests for the benchmark regression gate (``scripts/bench_gate.py``).

The gate runs every bench script's smoke once, in :func:`gate_run`; the
self-test and the divergence test re-use that run's numbers instead of
measuring again.
"""

import contextlib
import importlib.util
import io
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "scripts" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)

SIDES = ("instance", "reference_s", "fast_s", "count", "per")


def _run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = bench_gate.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def gate_run(tmp_path_factory):
    """One real gate run: exit code, stdout and the ``--report`` JSON."""
    report_file = tmp_path_factory.mktemp("gate") / "report.json"
    rc, out = _run_main(["--report", str(report_file)])
    return rc, out, json.loads(report_file.read_text())


def _sides(verdict):
    return {k: verdict[k] for k in SIDES if k in verdict}


class TestRequirements:
    @pytest.fixture
    def table(self, tmp_path, monkeypatch):
        (tmp_path / "BENCH_x.json").write_text(
            json.dumps({"engine": {"ratio": 50.0, "small": 10.0}})
        )
        monkeypatch.setattr(bench_gate, "ROOT", tmp_path)
        monkeypatch.setattr(bench_gate, "TABLE", {
            "scaled": ("bench_x", "BENCH_x.json", "engine.ratio", 3.0, 0.5),
            "floored": ("bench_x", "BENCH_x.json", "engine.small", 3.0, 1.0),
            "missing": ("bench_x", "BENCH_x.json", "engine.gone", 3.0, 1.0),
            "no_file": ("bench_x", "BENCH_y.json", "engine.ratio", 3.0, 1.0),
            "counter": ("bench_x", None, None, 1.0, 1.0),
        })

    def test_required_uses_committed_baseline_times_tolerance(self, table):
        # 50 x 0.5 x 0.2 = 5 beats the floor of 3.
        passing = bench_gate.judge(
            "scaled", {"instance": "i", "reference_s": 1.0, "fast_s": 0.2}
        )
        assert passing["baseline"] == 50.0
        assert passing["required"] == pytest.approx(5.0)
        assert passing["measured"] == pytest.approx(5.0)
        assert passing["passed"]
        failing = bench_gate.judge(
            "scaled", {"instance": "i", "reference_s": 1.0, "fast_s": 0.25}
        )
        assert failing["measured"] == pytest.approx(4.0)
        assert not failing["passed"]
        # 10 x 1 x 0.2 = 2 is under the floor, so the floor holds.
        floored = bench_gate.judge("floored", {"instance": "i", "count": 3})
        assert floored["required"] == 3.0 and floored["passed"]
        # A counter row without a BENCH file is held to its floor alone.
        counter = bench_gate.judge("counter", {"instance": "i", "count": 1})
        assert counter["baseline"] is None
        assert counter["required"] == 1.0 and counter["passed"]
        assert not bench_gate.judge(
            "counter", {"instance": "i", "count": 0}
        )["passed"]

    def test_missing_baseline_fails_its_row(self, table):
        row = {"instance": "i", "reference_s": 100.0, "fast_s": 1.0}
        for name in ("missing", "no_file"):
            verdict = bench_gate.judge(name, row)
            assert not verdict["passed"], name
            assert verdict["required"] is None
            assert "has no number at engine." in verdict["error"]

    def test_committed_baselines_resolve(self):
        # Every row that names a BENCH key must find it in the committed
        # files: a rename fails that row rather than weakening it.
        for name, (_, bench, key, _, _) in bench_gate.TABLE.items():
            if bench is not None:
                assert bench_gate._baseline(bench, key) is not None, name


def _slowed(report, slowdown_s=0.25):
    """The self-test: re-judge the run's rows with ``slowdown_s`` more on
    each speedup row's fast side, without measuring again."""
    verdicts = {}
    for verdict in report["rows"]:
        row = _sides(verdict)
        if "fast_s" in row:
            row["fast_s"] += slowdown_s
        verdicts[verdict["row"]] = bench_gate.judge(verdict["row"], row)
    return verdicts


class TestGateRuns:
    def test_clean_tree_passes_and_appends_history(self, gate_run):
        # The clean tree passes every row, and the run's one record is the
        # --report file: its verdict, environment and one entry per row.
        rc, out, report = gate_run
        assert rc == 0, out
        assert out.splitlines()[-1] == "bench gate: PASS"
        for name in bench_gate.TABLE:
            assert f"ok   {name}:" in out, name
        assert report["ok"] is True
        assert "environment" in report
        rows = [v["row"] for v in report["rows"]]
        assert sorted(rows) == sorted(bench_gate.TABLE)
        for verdict in report["rows"]:
            assert verdict["passed"] is True, verdict

    def test_cli_report_file(self, gate_run):
        _, _, report = gate_run
        assert report["tolerance"] == 0.2
        assert {"python", "cpu_count"} <= set(report["environment"])
        for verdict in report["rows"]:
            name = verdict["row"]
            for field in ("measured", "required", "baseline", "passed"):
                assert field in verdict, (name, field)
            if name == "search_memo_hits":
                assert verdict["count"] >= 1
            elif name == "design_search_solver":
                assert verdict["count"] > verdict["per"] > 0
            else:
                assert verdict["reference_s"] > verdict["fast_s"] > 0, name

    def test_injected_slowdown_fails(self, gate_run):
        # 0.25 s more on each speedup row's fast side must fail that row.
        _, _, report = gate_run
        slowed = _slowed(report)
        speedups = [v["row"] for v in report["rows"] if "fast_s" in v]
        assert speedups
        for name in speedups:
            assert not slowed[name]["passed"], slowed[name]

    def test_cli_self_test(self, gate_run):
        # The self-test, on the CLI run's own report: its rows re-judged
        # as they are reproduce each verdict, and with the slowdown the
        # gate fails while every counter row, which is no timing, passes.
        _, _, report = gate_run
        for verdict in report["rows"]:
            again = bench_gate.judge(verdict["row"], _sides(verdict))
            assert again["measured"] == verdict["measured"], verdict
            assert again["passed"] is verdict["passed"], verdict
        slowed = _slowed(report)
        assert not all(v["passed"] for v in slowed.values())
        counters = [v["row"] for v in report["rows"] if "fast_s" not in v]
        assert counters
        for name in counters:
            assert slowed[name]["passed"], slowed[name]

    def test_divergence_fails_its_scripts_rows(self, gate_run, monkeypatch,
                                               tmp_path):
        # The design-search smoke is the cheapest: make its solver drop a
        # design, so the catalog-vs-solver identity check raises.  The
        # other scripts return their rows of the real run.
        _, _, report = gate_run
        import bench_design_search

        real = bench_design_search.run_search

        def diverging(alg, binding, prims, config):
            found = real(alg, binding, prims, config)
            return found[:-1] if config.strategy == "solver" else found

        monkeypatch.setattr(bench_design_search, "run_search", diverging)
        for script in ("bench_analysis", "bench_compiled", "bench_symbolic"):
            rows = {
                v["row"]: _sides(v) for v in report["rows"]
                if v["script"] == script
            }
            module = importlib.import_module(script)
            monkeypatch.setattr(module, "smoke", lambda rows=rows: rows)

        report_file = tmp_path / "report.json"
        rc, out = _run_main(["--report", str(report_file)])
        assert rc == 1
        assert "bench gate: FAIL" in out
        verdicts = {
            v["row"]: v for v in json.loads(report_file.read_text())["rows"]
        }
        assert set(verdicts) == set(bench_gate.TABLE)
        for name in ("search_memo_hits", "design_search_solver"):
            assert not verdicts[name]["passed"]
            assert "solver search diverged from catalog" in (
                verdicts[name]["error"]
            )
            assert f"FAIL {name}: bench_design_search.smoke() raised" in out
        for name, verdict in verdicts.items():
            if verdict["script"] != "bench_design_search":
                assert verdict["passed"], verdict
                assert f"ok   {name}:" in out
