"""Tests for the command-line interfaces."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.experiments.__main__ import main as experiments_main


class TestTopLevelCli:
    def test_structure(self, capsys):
        assert main(["structure", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "5-dimensional" in out
        assert "c'" in out

    def test_structure_expansion1(self, capsys):
        assert main(["structure", "--expansion", "I"]) == 0
        assert "expI" in capsys.readouterr().out

    def test_design(self, capsys):
        assert main(["design", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out and "Fig. 5" in out
        assert "t = 7" in out and "t = 9" in out

    def test_search(self, capsys):
        assert main(["search", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "design-space search" in out
        assert "T = [S; Π]" in out

    @pytest.mark.parametrize("argv, option", [
        (["simulate", "--u", "2", "--p", "2", "--backend", "wavefront"],
         "--backend"),
        (["analyze", "--u", "2", "--p", "2", "--backend", "batched"],
         "--backend"),
        (["search", "--u", "2", "--p", "2", "--workers", "2"], "--workers"),
        (["search", "--u", "2", "--p", "2", "--shard-dir", "blocks"],
         "--shard-dir"),
        (["serve", "--port", "0", "--max-batch", "4"], "--max-batch"),
    ], ids=["simulate-wavefront", "analyze-batched", "search-workers",
            "search-shard-dir", "serve-max-batch"])
    def test_retired_option_exits_2(self, argv, option, capsys):
        # Parsing only: a command line that got through would not run,
        # so ``serve`` never starts a server here.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    def test_search_unconstrained_primitives(self, capsys):
        assert main(
            ["search", "--u", "2", "--p", "2", "--primitives", "none",
             "--max-candidates", "2"]
        ) == 0
        assert "primitives=none" in capsys.readouterr().out

    def test_search_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(
            ["search", "--u", "2", "--p", "2",
             "--metrics-out", str(out_file), "--quiet-metrics"]
        ) == 0
        metrics = json.loads(out_file.read_text())
        assert metrics["counters"]["mapping.cache_hits"] > 0
        assert metrics["counters"]["mapping.designs_found"] > 0
        assert "mapping.search_designs" in metrics["spans"]

    def test_simulate_fig4(self, capsys):
        assert main(["simulate", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "product correct" in out and "True" in out

    def test_simulate_fig5_with_gantt(self, capsys):
        assert main(
            ["simulate", "--u", "2", "--p", "2", "--design", "fig5", "--gantt"]
        ) == 0
        out = capsys.readouterr().out
        assert "#" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestObservabilityFlags:
    def test_structure_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(
            ["structure", "--u", "2", "--p", "2", "--metrics-out", str(out_file)]
        ) == 0
        captured = capsys.readouterr()
        assert "5-dimensional" in captured.out  # normal output intact
        assert "== trace ==" in captured.err
        metrics = json.loads(out_file.read_text())
        assert "cli.structure" in metrics["spans"]

    def test_design_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(
            ["design", "--u", "2", "--p", "2",
             "--metrics-out", str(out_file), "--quiet-metrics"]
        ) == 0
        assert capsys.readouterr().err == ""  # --quiet-metrics
        metrics = json.loads(out_file.read_text())
        assert metrics["counters"]["mapping.candidates_enumerated"] == 2
        assert metrics["counters"]["mapping.pruned"] == 0
        assert metrics["spans"]["cli.design"]["total_s"] > 0

    def test_simulate_metrics_and_trace(self, tmp_path, capsys):
        m_file = tmp_path / "m.json"
        t_file = tmp_path / "trace.jsonl"
        assert main(
            ["simulate", "--u", "2", "--p", "2", "--metrics-out", str(m_file),
             "--trace", str(t_file), "--quiet-metrics"]
        ) == 0
        out = capsys.readouterr().out
        # Obs flags do not change stdout; --gantt asks for the per-PE block.
        assert main(["simulate", "--u", "2", "--p", "2"]) == 0
        assert out == capsys.readouterr().out
        assert main(["simulate", "--u", "2", "--p", "2", "--gantt"]) == 0
        gantt = capsys.readouterr().out
        assert "condition 5 (some PE busy at every beat): True" in gantt
        assert "per-PE utilization:" in gantt
        assert "PE(3, 3):" in gantt
        metrics = json.loads(m_file.read_text())
        assert metrics["counters"]["machine.store_reads"] > 0
        assert metrics["counters"]["machine.store_writes"] > 0
        assert metrics["histograms"]["machine.pe_busy"]["count"] == (
            metrics["gauges"]["machine.processor_count"]
        )
        assert not any(
            name.startswith("machine.pe_busy.") for name in metrics["gauges"]
        )
        records = [
            json.loads(line) for line in t_file.read_text().splitlines()
        ]
        assert records[-1]["type"] == "metrics"
        assert any(
            r["type"] == "span" and r["name"] == "machine.simulate"
            for r in records
        )

    def test_search_chrome_trace_with_workers(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        assert main(
            ["search", "--u", "2", "--p", "2",
             "--trace", str(trace_file), "--trace-format", "chrome",
             "--quiet-metrics"]
        ) == 0
        rows = json.loads(trace_file.read_text())
        assert isinstance(rows, list) and rows
        for row in rows:
            for key in ("ts", "dur", "pid", "tid", "name"):
                assert key in row
        names = {r["name"] for r in rows}
        assert "cli.search" in names
        # One span per search, none per space: the walk publishes its
        # cut counters once, under the search's span.
        assert "mapping.search_designs" in names
        assert "mapping.evaluate_space" not in names

    def test_simulate_chrome_trace_counter_tracks(self, tmp_path):
        trace_file = tmp_path / "trace.json"
        m_file = tmp_path / "m.json"
        assert main(
            ["simulate", "--u", "2", "--p", "2",
             "--trace", str(trace_file), "--trace-format", "chrome",
             "--metrics-out", str(m_file), "--quiet-metrics"]
        ) == 0
        rows = json.loads(trace_file.read_text())
        counters = [r for r in rows if r.get("ph") == "C"]
        assert any(r["name"] == "machine.pe_busy_max" for r in counters)
        # One sample per counter and gauge, carrying its final value.
        metrics = json.loads(m_file.read_text())
        assert len(counters) == len({r["name"] for r in counters})
        assert {r["name"]: r["args"]["value"] for r in counters} == {
            **metrics["counters"], **metrics["gauges"]
        }

    @pytest.mark.parametrize("argv", [
        ["analyze", "--u", "2", "--p", "2", "--no-cache"],
        ["search", "--u", "2", "--p", "2"],
        ["simulate", "--u", "2", "--p", "2"],
    ], ids=lambda argv: argv[0])
    def test_server_metrics_out_equals_in_process(self, argv, tmp_path):
        from repro.compile.plan import clear_plan_memo
        from repro.compile.runner import clear_program_memo
        from repro.mapping.solver import clear_search_plans
        from repro.serve import ServerConfig, ServerThread
        from repro.symbolic import clear_memo

        def metrics(*flags):
            for clear in (clear_plan_memo, clear_program_memo,
                          clear_search_plans, clear_memo):
                clear()  # each side starts from the same cold memos
            out_file = tmp_path / "m.json"
            assert main(
                [*argv, *flags, "--metrics-out", str(out_file),
                 "--quiet-metrics"]
            ) == 0
            written = json.loads(out_file.read_text())
            return written["counters"], written["gauges"]

        with ServerThread(ServerConfig()) as handle:
            served = metrics("--server", f"127.0.0.1:{handle.port}")
        assert served == metrics()
        assert served[0], "the job reported no counters"

    def test_flags_accepted_before_subcommand(self, tmp_path):
        out_file = tmp_path / "m.json"
        assert main(
            ["--metrics-out", str(out_file), "--quiet-metrics",
             "design", "--u", "2", "--p", "2"]
        ) == 0
        assert "cli.design" in json.loads(out_file.read_text())["spans"]

    def test_no_flags_installs_no_registry(self, capsys):
        from repro import obs

        assert main(["simulate", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr()
        assert obs.get_registry() is None
        assert "condition 5" not in out.out
        assert out.err == ""

    def test_experiments_records_per_experiment_spans(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(
            ["experiments", "e1", "--metrics-out", str(out_file),
             "--quiet-metrics"]
        ) == 0
        metrics = json.loads(out_file.read_text())
        assert "experiment.e1" in metrics["spans"]


class TestExperimentsCli:
    def test_single_experiment(self, capsys):
        assert experiments_main(["e1"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out

    def test_unknown_id(self, capsys):
        assert experiments_main(["e99"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_multiple(self, capsys):
        assert experiments_main(["e8", "e1"]) == 0
