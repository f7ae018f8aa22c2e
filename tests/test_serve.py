"""Tests for the analysis-as-a-service tier (repro.serve).

Covers the frozen JobSpec schema and its exact JSON round-trip, the
shared dispatch's CLI-output parity, request coalescing (N concurrent
identical analyze jobs -> exactly one analysis-engine call), job ids
that are content keys and a job table bounded by the in-flight and
retained executions, one execution per job (each job's metrics, spans
and budget are its own), budget enforcement (a timed-out result is never
coalesced onto), malformed requests and a client dropped mid-long-poll,
the HTTP client/server round trip (``run_many`` past the retained-result
limit), and the promoted top-level API with its deprecation shims.
"""

import contextlib
import dataclasses
import gc
import json
import re
import socket
import threading
import time

import pytest

from repro.serve import (
    JobLimits,
    JobResult,
    JobSpec,
    ServeClient,
    ServeError,
    ServerConfig,
    ServerThread,
    job_key,
    run_job,
)
from repro.serve import dispatch as dispatch_mod
from repro.serve.server import _Execution


def _norm(text: str) -> str:
    """Mask wall-clock timings so outputs can be compared byte-wise."""
    return re.sub(r"\d+\.\d+ms", "Tms", re.sub(r"\d+\.\d+s", "Ts", text))


# ---------------------------------------------------------------------------
# JobSpec / JobResult schema
# ---------------------------------------------------------------------------

class TestJobSchema:
    def test_exact_json_round_trip(self):
        spec = JobSpec(
            kind="search", u=2, p=2, block=(2, 3), oracles=("mapping",),
            max_candidates=3, budget_s=9.5,
        )
        wire = json.loads(json.dumps(spec.to_payload()))
        again = JobSpec.from_payload(wire)
        assert again == spec
        assert again.to_payload() == spec.to_payload()

    def test_round_trip_preserves_every_field(self):
        from dataclasses import fields

        spec = JobSpec(kind="analyze")
        payload = spec.to_payload()
        assert set(payload) == {f.name for f in fields(JobSpec)} | {"schema"}

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job fields: turbo"):
            JobSpec.from_payload({"kind": "analyze", "turbo": True})
        with pytest.raises(ValueError, match="unknown job fields: workers"):
            JobSpec.from_payload({"kind": "search", "workers": 2})
        with pytest.raises(ValueError, match="unknown job fields: shard_dir"):
            JobSpec.from_payload({"kind": "search", "shard_dir": "blocks"})

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            JobSpec.from_payload({"schema": 99, "kind": "analyze"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec.from_payload({"u": 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(kind="frobnicate")
        with pytest.raises(ValueError):
            JobSpec(kind="analyze", u=0)
        with pytest.raises(ValueError):
            JobSpec(kind="analyze", budget_s=0.0)

    def test_job_key_is_content_address(self):
        a = JobSpec(kind="analyze", u=2, p=2)
        b = JobSpec.from_payload(a.to_payload())
        c = JobSpec(kind="analyze", u=2, p=3)
        assert job_key(a) == job_key(b)
        assert job_key(a) != job_key(c)

    def test_result_round_trip(self):
        result = JobResult(
            kind="simulate", status="ok", exit_code=0, output="hi\n",
            data={"makespan": 7}, elapsed_s=0.25,
        )
        again = JobResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert again == result
        assert again.ok


# ---------------------------------------------------------------------------
# Dispatch: CLI parity
# ---------------------------------------------------------------------------

class TestDispatchParity:
    """run_job output is byte-identical to the CLI subcommand's stdout."""

    @pytest.mark.parametrize("argv, spec", [
        (
            ["analyze", "--u", "2", "--p", "2", "--no-cache"],
            JobSpec(kind="analyze", u=2, p=2, cache=False),
        ),
        (
            ["analyze", "--symbolic", "--u", "2", "--p", "2", "--no-cache"],
            JobSpec(kind="analyze_symbolic", u=2, p=2, cache=False),
        ),
        (
            ["search", "--u", "2", "--p", "2", "--max-candidates", "2"],
            JobSpec(kind="search", u=2, p=2, max_candidates=2),
        ),
        (
            ["simulate", "--u", "2", "--p", "2"],
            JobSpec(kind="simulate", u=2, p=2),
        ),
        (
            ["verify", "--cases", "2", "--budget-s", "10"],
            JobSpec(kind="verify", cases=2, oracle_budget_s=10.0),
        ),
    ])
    def test_cli_equals_dispatch(self, argv, spec, capsys):
        from repro.__main__ import main

        assert main(argv) == 0
        cli_out = capsys.readouterr().out
        result = run_job(spec)
        assert result.ok
        assert _norm(result.output) == _norm(cli_out)

    def test_simulate_exit_code_and_data(self):
        result = run_job(JobSpec(kind="simulate", u=2, p=2))
        assert result.exit_code == 0
        assert result.data["correct"] is True
        assert result.data["makespan"] > 0

    def test_handler_exception_is_structured(self, monkeypatch):
        import repro.mapping.designs as designs_mod

        def boom(p):
            raise RuntimeError("seeded failure")

        monkeypatch.setattr(designs_mod, "fig4_mapping", boom)
        result = run_job(JobSpec(kind="simulate", u=2, p=2))
        assert result.status == "error"
        assert result.exit_code == 3
        assert "seeded failure" in result.error


class TestJobIsItsSpec:
    """A job's output depends on its spec alone: not on the executing
    process's obs state, nor on its backend environment."""

    @pytest.mark.parametrize("spec", [
        JobSpec(kind="analyze", u=2, p=2, cache=False),
        JobSpec(kind="analyze_symbolic", u=2, p=2, cache=False),
        JobSpec(kind="search", u=2, p=2),
        JobSpec(kind="simulate", u=2, p=2),
    ], ids=lambda spec: spec.kind)
    def test_output_ignores_an_ambient_registry(self, spec):
        from repro import obs

        bare = run_job(spec)
        with obs.collecting():
            collected = run_job(spec)
        assert bare.ok and collected.ok
        assert _norm(collected.output) == _norm(bare.output)

    def test_gantt_prints_the_per_pe_block(self):
        plain = run_job(JobSpec(kind="simulate", u=2, p=2)).output
        gantt = run_job(JobSpec(kind="simulate", u=2, p=2, gantt=True)).output
        assert len(plain.splitlines()) == 3
        assert "condition 5" not in plain
        assert "condition 5 (some PE busy at every beat): True" in gantt
        assert "per-PE utilization:" in gantt
        assert "ValueStore:" in gantt

    @pytest.mark.parametrize("kind, field, variable, value, default", [
        ("simulate", "sim_backend", "REPRO_SIM_BACKEND", "compiled",
         "pointwise"),
        ("analyze", "analysis_backend", "REPRO_ANALYSIS_BACKEND", "scalar",
         "symbolic"),
    ])
    def test_route_is_resolved_into_the_spec_and_its_key(
        self, monkeypatch, kind, field, variable, value, default
    ):
        monkeypatch.setenv(variable, value)
        from_env = JobSpec(kind=kind, u=2, p=2)
        monkeypatch.delenv(variable)
        plain = JobSpec(kind=kind, u=2, p=2)
        assert getattr(from_env, field) == value
        assert getattr(plain, field) == default
        assert job_key(from_env) != job_key(plain)
        assert JobSpec.from_payload(from_env.to_payload()) == from_env
        # The executing process's environment no longer picks the route.
        monkeypatch.setenv(variable, default)
        assert f"backend={value}" in run_job(from_env).output

    def test_only_the_read_backend_is_resolved(self):
        assert JobSpec(kind="simulate").analysis_backend is None
        assert JobSpec(kind="analyze").sim_backend is None
        assert JobSpec(kind="search").sim_backend is None
        with pytest.raises(ValueError, match="sim_backend"):
            JobSpec(kind="analyze", sim_backend="wavefront")

    def test_analyze_spec_does_not_import_the_machine(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "from repro.serve.jobs import JobSpec\n"
            "JobSpec(kind='analyze')\n"
            "print('repro.machine' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
            check=True,
        )
        assert run.stdout.strip() == "False"

    def test_one_spelling_per_setting(self):
        with pytest.raises(ValueError, match="strategy"):
            JobSpec(kind="search", strategy="auto")
        with pytest.raises(ValueError, match="analysis_backend"):
            JobSpec(kind="analyze", analysis_backend="auto")
        with pytest.raises(ValueError, match="unknown job fields: exhaustive"):
            JobSpec.from_payload({"kind": "search", "exhaustive": True})


# ---------------------------------------------------------------------------
# Budgets / admission control
# ---------------------------------------------------------------------------

class TestLimits:
    def test_oversized_analyze_refused(self):
        limits = JobLimits(max_points=1_000)
        result = run_job(JobSpec(kind="analyze", u=10, p=8), limits=limits)
        assert result.status == "error"
        assert result.exit_code == 2
        assert result.error.startswith("budget:")

    def test_oversized_verify_refused(self):
        limits = JobLimits(max_cases=10)
        result = run_job(JobSpec(kind="verify", cases=100), limits=limits)
        assert result.status == "error"
        assert "verify cases" in result.error

    def test_effective_budget(self):
        limits = JobLimits(max_budget_s=5.0)
        assert limits.effective_budget(JobSpec(kind="analyze")) == 5.0
        assert limits.effective_budget(
            JobSpec(kind="analyze", budget_s=2.0)
        ) == 2.0
        assert limits.effective_budget(
            JobSpec(kind="analyze", budget_s=60.0)
        ) == 5.0


# ---------------------------------------------------------------------------
# The server: coalescing, job ids, budgets
# ---------------------------------------------------------------------------

@pytest.fixture()
def server():
    with ServerThread(ServerConfig()) as handle:
        yield handle


class TestServer:
    def test_health_and_stats(self, server):
        client = ServeClient(port=server.port)
        assert client.health()["ok"] is True
        stats = client.stats()
        assert stats["inflight"] == 0

    def test_stats_sum_every_counter_a_job_reports(self, server):
        # Not only the analysis and cache layers: a search's mapping.*
        # and a symbolic analysis's symbolic.* counters reach /v1/stats.
        from repro.symbolic import clear_memo

        clear_memo()  # so the served analysis solves and counts it
        client = ServeClient(port=server.port)
        search = client.run(JobSpec(kind="search", u=2, p=2), timeout=120)
        symbolic = client.run(
            JobSpec(kind="analyze_symbolic", u=2, p=2, cache=False),
            timeout=120,
        )
        assert search.ok and symbolic.ok
        stats = client.stats()["server"]
        for result, name in ((search, "mapping.designs_found"),
                             (symbolic, "symbolic.analyses")):
            own = result.metrics["counters"][name]
            assert own > 0
            assert stats[name] == own, name

    def test_concurrent_identical_jobs_coalesce_to_one_engine_call(
        self, server
    ):
        """The acceptance check: 8 identical analyze submissions, one
        analysis-engine invocation, 8 byte-identical results."""
        spec = JobSpec(kind="analyze", u=2, p=2, cache=False)
        results = [None] * 8

        def worker(i):
            results[i] = ServeClient(port=server.port).run(spec, timeout=120)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        payloads = [r.to_payload() for r in results]
        assert all(p == payloads[0] for p in payloads)
        assert results[0].ok
        stats = ServeClient(port=server.port).stats()["server"]
        assert stats["analysis.engine_calls"] == 1
        assert stats["serve.executions"] == 1
        assert stats["serve.jobs_submitted"] == 8
        assert stats["serve.jobs_coalesced"] == 7

    def test_completed_results_still_coalesce(self, server):
        client = ServeClient(port=server.port)
        spec = JobSpec(kind="simulate", u=2, p=2)
        first = client.run(spec, timeout=60)
        submitted = client.submit(spec)
        assert submitted["coalesced"] is True
        assert client.wait(
            submitted["job_id"], timeout=30
        ).to_payload() == first.to_payload()

    def test_mixed_batch_runs_every_kind(self, server):
        client = ServeClient(port=server.port)
        specs = [
            JobSpec(kind="analyze", u=2, p=2, cache=False),
            JobSpec(kind="simulate", u=2, p=2),
            JobSpec(kind="search", u=2, p=2, max_candidates=2),
            JobSpec(kind="verify", cases=2, oracle_budget_s=10.0),
        ]
        results = client.run_many(specs, timeout=180)
        assert [r.kind for r in results] == [s.kind for s in specs]
        assert all(r.ok for r in results)

    def test_server_output_matches_direct_dispatch(self, server):
        client = ServeClient(port=server.port)
        for spec in (
            JobSpec(kind="analyze", u=2, p=2, cache=False),
            JobSpec(kind="simulate", u=2, p=2),
        ):
            served = client.run(spec, timeout=60)
            direct = run_job(spec)
            assert _norm(served.output) == _norm(direct.output)

    @pytest.mark.parametrize("spec", [
        JobSpec(kind="analyze", u=2, p=2, cache=False),
        JobSpec(kind="analyze_symbolic", u=2, p=2, cache=False),
        JobSpec(kind="search", u=2, p=2),
        JobSpec(kind="simulate", u=2, p=2),
        JobSpec(kind="verify", cases=2, oracle_budget_s=10.0),
    ], ids=lambda spec: spec.kind)
    def test_served_metrics_equal_in_process_metrics(self, server, spec):
        from repro import obs
        from repro.compile.plan import clear_plan_memo
        from repro.compile.runner import clear_program_memo
        from repro.mapping.solver import clear_search_plans
        from repro.symbolic import clear_memo

        def run(fn):
            for clear in (clear_plan_memo, clear_program_memo,
                          clear_search_plans, clear_memo):
                clear()  # each side starts from the same cold memos
            metrics = fn().metrics
            histograms = {
                # Timing histograms can agree in their counts only.
                name: h["count"] if name.endswith("_seconds") else h
                for name, h in metrics["histograms"].items()
            }
            return metrics["counters"], metrics["gauges"], histograms

        client = ServeClient(port=server.port)
        served = run(lambda: client.run(spec, timeout=120))
        direct = run(lambda: run_job(spec, registry=obs.Registry()))
        assert served == direct
        assert served[0], "the job reported no counters"

    def test_one_spec_has_one_job_id_its_key(self, server):
        client = ServeClient(port=server.port)
        spec = JobSpec(kind="simulate", u=2, p=2)
        first = client.submit(spec)
        second = client.submit(spec)
        assert second["coalesced"] is True
        assert first["job_id"] == second["job_id"]
        assert first["job_id"] == job_key(spec)
        assert "key" not in first
        assert "key" not in client.status(first["job_id"])

    def test_unknown_job_is_404(self, server):
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError) as excinfo:
            client.status("j999999")
        assert excinfo.value.status == 404

    def test_job_table_stays_bounded(self):
        """300 distinct jobs: the server keeps the newest 256, and an
        expired id gets a 404 that says why."""
        specs = [
            JobSpec(kind="analyze", u=3, p=3, seed=seed)
            for seed in range(10_000, 10_300)
        ]
        config = ServerConfig(limits=JobLimits(max_points=10))
        with ServerThread(config) as handle:
            client = ServeClient(port=handle.port)
            job_ids = [client.submit(spec)["job_id"] for spec in specs]
            # Jobs run in order, so the last one done means all are.
            last = client.wait(job_ids[-1], timeout=60)
            assert last.status == "error" and "budget" in last.error
            gc.collect()
            ours = set(specs)
            live = [
                obj for obj in gc.get_objects()
                if isinstance(obj, _Execution) and obj.spec in ours
            ]
            assert len(live) <= 256
            with pytest.raises(ServeError) as excinfo:
                client.status(job_ids[0])
            assert excinfo.value.status == 404
            assert "not among the last 256 results" in str(excinfo.value)
            assert client.status(job_ids[-1])["status"] == "done"

    def test_run_many_returns_every_result(self):
        """More specs than the server retains: each result is read before
        it can expire."""
        specs = [
            JobSpec(kind="analyze", u=3, p=3, seed=seed)
            for seed in range(10_000, 10_300)
        ]
        config = ServerConfig(limits=JobLimits(max_points=10))
        with ServerThread(config) as handle:
            results = ServeClient(port=handle.port).run_many(
                specs, timeout=60
            )
        assert len(results) == len(specs)
        for result in results:
            assert result.status == "error"
            assert "exceed the server limit of 10" in result.error

    def test_client_dropped_during_long_poll(self, monkeypatch, caplog):
        """A client that closes its socket mid-``wait`` costs the job
        nothing: it finishes once, its result stays readable by id, and
        the server keeps answering."""
        spec = JobSpec(kind="simulate", u=2, p=2)
        with ServerThread(ServerConfig()) as handle:
            client = ServeClient(port=handle.port)
            with _held_jobs(monkeypatch, {"simulate"}):
                job_id = client.submit(spec)["job_id"]
                deadline = time.monotonic() + 30
                while client.status(job_id)["status"] != "running":
                    assert time.monotonic() < deadline, "never started"
                    time.sleep(0.01)
                with socket.create_connection(
                    ("127.0.0.1", handle.port), timeout=10
                ) as sock:
                    sock.sendall(
                        f"GET /v1/jobs/{job_id}?wait=30 HTTP/1.1\r\n"
                        f"Host: localhost\r\n\r\n".encode("ascii")
                    )
                assert client.health()["ok"] is True
            result = client.wait(job_id, timeout=60)
            assert result.ok, result.error
            envelope = client.status(job_id)
            assert envelope["result"] == result.to_payload()
            assert client.health()["ok"] is True
            assert client.stats()["server"]["serve.executions"] == 1
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_malformed_spec_is_400(self, server):
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/jobs", {"kind": "nope"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("payload, field", [
        ({"kind": "search", "max_candidates": 0}, "max_candidates"),
        ({"kind": "search", "overcollect": 0}, "overcollect"),
        ({"kind": "search", "target_space_dim": 0}, "target_space_dim"),
        ({"kind": "search", "schedule_bound": -1}, "schedule_bound"),
        ({"kind": "simulate", "sim_backend": "wavefront"}, "sim_backend"),
    ])
    def test_invalid_setting_is_400_naming_it(self, server, payload, field):
        """A spec that could only end in a traceback is refused at submit."""
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/jobs", payload)
        assert excinfo.value.status == 400
        assert field in str(excinfo.value)
        assert client.stats()["server"].get("serve.jobs_submitted", 0) == 0

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, server, length):
        request = (
            f"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(request.encode("ascii"))
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"
        assert "Content-Length" in json.loads(body)["error"]

    def test_served_job_registry_has_no_sinks(self, monkeypatch):
        real_run_job = dispatch_mod.run_job
        registries = []

        def recording_run_job(spec, registry=None, limits=None):
            registries.append(registry)
            return real_run_job(spec, registry=registry, limits=limits)

        monkeypatch.setattr(dispatch_mod, "run_job", recording_run_job)
        with ServerThread(ServerConfig()) as handle:
            result = ServeClient(port=handle.port).run(
                JobSpec(kind="simulate", u=2, p=2), timeout=60
            )
        assert result.ok, result.error
        [registry] = registries
        assert registry is not None
        assert result.metrics == registry.metrics()

    def test_admission_refusal_is_structured(self):
        config = ServerConfig(limits=JobLimits(max_points=10))
        with ServerThread(config) as handle:
            client = ServeClient(port=handle.port)
            result = client.run(
                JobSpec(kind="analyze", u=3, p=3), timeout=30
            )
            assert result.status == "error"
            assert result.exit_code == 2
            assert result.error.startswith("budget:")


@contextlib.contextmanager
def _held_jobs(monkeypatch, held_kinds):
    """Hold the first job of ``held_kinds`` in the worker until the block
    exits, then release it and wait for the worker to finish: a
    budget-orphaned worker keeps its registry installed process-wide, so
    it must not outlive its test."""
    real_run_job = dispatch_mod.run_job
    held = threading.Event()
    release = threading.Event()
    finished = threading.Event()

    def slow_run_job(spec, registry=None, limits=None):
        if spec.kind not in held_kinds or held.is_set():
            return real_run_job(spec, registry=registry, limits=limits)
        held.set()
        try:
            release.wait(20)
            return real_run_job(spec, registry=registry, limits=limits)
        finally:
            finished.set()

    monkeypatch.setattr(dispatch_mod, "run_job", slow_run_job)
    try:
        yield
    finally:
        release.set()
        done = finished.wait(30)
    assert done, "the released worker did not finish"


class TestServerBudget:
    def test_budget_timeout_is_structured(self, monkeypatch):
        """A job overrunning its wall-clock budget gets status="timeout"
        and the server stays healthy for subsequent jobs."""
        with _held_jobs(monkeypatch, {"verify"}):
            with ServerThread(ServerConfig()) as handle:
                client = ServeClient(port=handle.port)
                result = client.run(
                    JobSpec(
                        kind="verify", cases=2, oracle_budget_s=10.0,
                        budget_s=0.3,
                    ),
                    timeout=30,
                )
                assert result.status == "timeout"
                assert result.exit_code == 4
                assert "budget" in result.error
                stats = client.stats()["server"]
                assert stats["serve.jobs_timed_out"] == 1
                # The orphaned worker must not wedge the server.
                after = client.run(
                    JobSpec(kind="simulate", u=2, p=2), timeout=60
                )
                assert after.ok

    def test_server_default_budget_applies(self, monkeypatch):
        with _held_jobs(monkeypatch, {"simulate"}):
            config = ServerConfig(limits=JobLimits(max_budget_s=0.3))
            with ServerThread(config) as handle:
                client = ServeClient(port=handle.port)
                result = client.run(
                    JobSpec(kind="simulate", u=2, p=2), timeout=30
                )
                assert result.status == "timeout"

    def test_timeout_is_not_coalesced_onto(self, monkeypatch):
        """A timeout depends on the load, not on the spec: the same spec
        sent again runs again under the same id, and until then the id
        answers with the timeout."""
        spec = JobSpec(kind="simulate", u=2, p=2)
        with _held_jobs(monkeypatch, {"simulate"}):
            config = ServerConfig(limits=JobLimits(max_budget_s=1.0))
            with ServerThread(config) as handle:
                client = ServeClient(port=handle.port)
                first = client.submit(spec)
                timed_out = client.wait(first["job_id"], timeout=30)
                assert timed_out.status == "timeout"
                envelope = client.status(first["job_id"])
                assert envelope["result"]["status"] == "timeout"
                again = client.submit(spec)
                assert again["coalesced"] is False
                assert again["job_id"] == first["job_id"]
                result = client.wait(again["job_id"], timeout=30)
                assert result.ok, result.error
                stats = client.stats()["server"]
                assert stats["serve.executions"] == 2
                assert stats["serve.jobs_timed_out"] == 1


# ---------------------------------------------------------------------------
# One execution per job
# ---------------------------------------------------------------------------

#: three distinct analyze jobs that differ only in size
_QUEUED_ANALYSES = [
    JobSpec(kind="analyze", u=n, p=n, analysis_backend="symbolic",
            cache=False)
    for n in (2, 3, 4)
]


def _queue_behind_held_job(monkeypatch, client, specs):
    """Submit ``specs`` one at a time through ``/v1/jobs`` while a held
    simulate job keeps the worker busy, so all of them wait in the queue
    together; release the worker and return their job ids."""
    with _held_jobs(monkeypatch, {"simulate"}):
        client.submit(JobSpec(kind="simulate", u=2, p=2))
        return [client.submit(spec)["job_id"] for spec in specs]


class TestOneExecutionPerJob:
    def test_queued_jobs_report_their_own_metrics_and_spans(
        self, monkeypatch
    ):
        with ServerThread(ServerConfig()) as handle:
            client = ServeClient(port=handle.port)
            job_ids = _queue_behind_held_job(
                monkeypatch, client, _QUEUED_ANALYSES
            )
            for job_id in job_ids:
                result = client.wait(job_id, timeout=60)
                assert result.ok, result.error
                counters = result.metrics["counters"]
                assert (counters["depanalysis.instances"]
                        == result.data["instances"])
                spans = result.metrics["spans"]
                assert spans["depanalysis.analyze_exact"]["count"] == 1
            stats = client.stats()["server"]
            assert stats["serve.executions"] == 1 + len(_QUEUED_ANALYSES)

    def test_each_queued_job_runs_under_its_own_budget(self, monkeypatch):
        """One slowed analysis fits the budget and three do not, so a
        job charged for its queue neighbours would time out."""
        import repro.depanalysis.engine as engine_mod

        real = engine_mod._analyze_exact_symbolic
        delay_s = 1.0

        def slowed(program, binding, use_screens):
            time.sleep(delay_s)
            return real(program, binding, use_screens)

        monkeypatch.setattr(engine_mod, "_analyze_exact_symbolic", slowed)
        specs = [
            dataclasses.replace(spec, budget_s=2 * delay_s)
            for spec in _QUEUED_ANALYSES
        ]
        with ServerThread(ServerConfig()) as handle:
            client = ServeClient(port=handle.port)
            job_ids = _queue_behind_held_job(monkeypatch, client, specs)
            results = [client.wait(job_id, timeout=60) for job_id in job_ids]
        assert [r.status for r in results] == ["ok"] * len(specs)


class TestRetiredBatchSurface:
    def test_batch_route_is_gone(self, server):
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/batch", {
                "specs": [JobSpec(kind="analyze", u=2, p=2).to_payload()]
            })
        assert excinfo.value.status == 404

    def test_event_stream_route_is_gone(self, server):
        client = ServeClient(port=server.port)
        job_id = client.submit(JobSpec(kind="simulate", u=2, p=2))["job_id"]
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", f"/v1/jobs/{job_id}/events")
        assert excinfo.value.status == 404

    def test_max_batch_setting_is_gone(self):
        # ``repro serve --max-batch`` is in test_cli's retired options.
        with pytest.raises(TypeError):
            ServerConfig(max_batch=4)


# ---------------------------------------------------------------------------
# The analyze_symbolic job kind
# ---------------------------------------------------------------------------

class TestSymbolicJobs:
    def test_spec_round_trip_and_job_key(self):
        spec = JobSpec(kind="analyze_symbolic", u=64, p=64, cache=False)
        again = JobSpec.from_payload(json.loads(json.dumps(spec.to_payload())))
        assert again == spec
        assert job_key(again) == job_key(spec)
        other = JobSpec(kind="analyze_symbolic", u=65, p=64, cache=False)
        assert job_key(other) != job_key(spec)
        # Same sizes, different kind: different computation, different key.
        concrete = JobSpec(kind="analyze", u=64, p=64, cache=False)
        assert job_key(concrete) != job_key(spec)

    def test_huge_sizes_admitted_under_points_ceiling(self):
        # The symbolic path never enumerates the iteration space, so the
        # admission estimate is 0 regardless of u/p -- u=p=1024 runs even
        # on a server that refuses a u=3 concrete analysis.
        limits = JobLimits(max_points=10)
        spec = JobSpec(kind="analyze_symbolic", u=1024, p=1024, cache=False)
        result = run_job(spec, limits=limits)
        assert result.ok
        assert result.data["closed_form"] is True
        assert result.data["instances"] > 4_000_000_000_000_000
        refused = run_job(JobSpec(kind="analyze", u=3, p=3), limits=limits)
        assert refused.status == "error"
        assert "budget" in refused.error

    def test_data_agrees_with_concrete_analysis(self):
        symbolic = run_job(
            JobSpec(kind="analyze_symbolic", u=2, p=2, cache=False)
        )
        concrete = run_job(JobSpec(kind="analyze", u=2, p=2, cache=False))
        assert symbolic.ok and concrete.ok
        assert symbolic.data["instances"] == concrete.data["instances"]
        assert (
            symbolic.data["distinct_vectors"]
            == concrete.data["distinct_vectors"]
        )

    def test_identical_symbolic_jobs_coalesce(self, server):
        client = ServeClient(port=server.port)
        spec = JobSpec(kind="analyze_symbolic", u=256, p=256, cache=False)
        first = client.run(spec, timeout=60)
        assert first.ok
        submitted = client.submit(spec)
        assert submitted["coalesced"] is True
        again = client.wait(submitted["job_id"], timeout=30)
        assert again.to_payload() == first.to_payload()
        stats = client.stats()["server"]
        assert stats["serve.jobs_submitted"] == 2
        assert stats["serve.jobs_coalesced"] == 1
        assert stats["serve.executions"] == 1

    def test_server_output_matches_direct_dispatch(self, server):
        client = ServeClient(port=server.port)
        spec = JobSpec(kind="analyze_symbolic", u=7, p=5, cache=False)
        served = client.run(spec, timeout=60)
        direct = run_job(spec)
        assert served.ok
        assert _norm(served.output) == _norm(direct.output)


# ---------------------------------------------------------------------------
# The promoted public API and its deprecation shims
# ---------------------------------------------------------------------------

class TestPublicApi:
    def test_four_verbs_exported(self):
        import repro

        assert callable(repro.analyze)
        assert callable(repro.search_designs)
        assert callable(repro.simulate)
        assert callable(repro.verify_run)
        assert callable(repro.analyze_symbolic)

    def test_analyze_symbolic_wrapper(self):
        import repro

        result = repro.analyze_symbolic(u=1024, p=1024, cache=False)
        assert result.ok
        assert result.data["closed_form"] is True
        assert result.data["instances"] > 4_000_000_000_000_000

    def test_simulate_wrapper(self):
        import repro

        result = repro.simulate(u=2, p=2)
        assert result.ok
        assert result.data["correct"] is True

    def test_verify_run_wrapper(self):
        import repro

        result = repro.verify_run(cases=2, budget_s=10.0)
        assert result.ok
        assert result.data["ok"] is True

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_an_attribute


def test_served_search_names_a_primitive_row_mismatch():
    """A search whose target space dimension differs from P's row count
    (fig4's P has 2 rows) returns the validation message, not a solver
    traceback from a truncated system."""
    result = run_job(JobSpec(kind="search", u=2, p=2, target_space_dim=1))
    assert result.status == "error"
    assert ("P has 2 row(s) but the space mapping has 1 dimension(s)"
            in result.error)
