"""Tests for the benchmark regression gate (repro.obs.regress)."""

import json

from repro.obs import regress


class TestRequirements:
    def test_required_uses_committed_baseline_times_tolerance(self):
        required, baseline = regress._required("analysis_batched", 0.5)
        if baseline is not None:
            assert required == max(
                regress.FLOORS["analysis_batched"], baseline * 0.5
            )
        else:  # no committed file: floor alone
            assert required == regress.FLOORS["analysis_batched"]

    def test_missing_baseline_degrades_to_floor(self):
        assert regress._load_baseline("no_such_check") is None
        required, baseline = regress._required("search_memo_hits", 0.5)
        assert baseline is None
        assert required == regress.FLOORS["search_memo_hits"]

    def test_committed_baselines_resolve(self):
        # The repo ships BENCH_*.json; every ratio check must find its
        # committed baseline (a rename would silently weaken the gate).
        for name in regress.BASELINE_KEYS:
            assert regress._load_baseline(name) is not None, name


class TestGateRuns:
    def test_clean_tree_passes_and_appends_history(self, tmp_path):
        history = tmp_path / "history.jsonl"
        report = regress.run_gate(repeats=1, history_path=history)
        assert report.ok, report.summary()
        assert {c.name for c in report.checks} == {
            "analysis_batched", "analysis_cache_warm", "compiled_kernel",
            "search_memo_hits", "symbolic_instantiate",
            "design_search_solver",
        }
        (record,) = [
            json.loads(line) for line in history.read_text().splitlines()
        ]
        assert record["ok"] is True
        assert record["timestamp"] > 0
        assert len(record["checks"]) == 6
        assert "environment" in record

    def test_injected_slowdown_fails(self, tmp_path):
        history = tmp_path / "history.jsonl"
        report = regress.run_gate(
            repeats=1, inject_slowdown_s=0.25, history_path=history
        )
        assert not report.ok
        failed = {c.name for c in report.checks if not c.passed}
        # Every timing-ratio check must trip; the structural memo check
        # is unaffected by a slowdown.
        assert failed >= {
            "analysis_batched", "compiled_kernel", "symbolic_instantiate",
        }
        (record,) = [
            json.loads(line) for line in history.read_text().splitlines()
        ]
        assert record["ok"] is False
        assert record["injected_slowdown_s"] == 0.25

    def test_cli_self_test(self, capsys):
        assert regress.main(["--self-test"]) == 0
        assert "self-test ok" in capsys.readouterr().out

    def test_cli_report_file(self, tmp_path, capsys):
        report_file = tmp_path / "gate.json"
        rc = regress.main(
            ["--smoke", "--repeats", "1", "--no-history",
             "--report", str(report_file)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bench gate: PASS" in out
        data = json.loads(report_file.read_text())
        assert data["ok"] is True
        assert all("measured" in c for c in data["checks"])
