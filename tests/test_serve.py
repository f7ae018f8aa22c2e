"""Tests for the analysis-as-a-service tier (repro.serve).

Covers the frozen JobSpec schema and its exact JSON round-trip, the
shared dispatch's CLI-output parity, request coalescing (N concurrent
identical analyze jobs -> exactly one vectorized-engine call), analyze
batching, budget enforcement, the HTTP client/server round trip, and
the promoted top-level API with its deprecation shims.
"""

import contextlib
import json
import re
import threading
import time

import pytest

from repro.serve import (
    JobLimits,
    JobResult,
    JobSpec,
    ServeClient,
    ServerConfig,
    ServerThread,
    job_key,
    run_job,
)
from repro.serve import dispatch as dispatch_mod


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
# The server: coalescing, batching, budgets, streaming
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

    def test_concurrent_identical_jobs_coalesce_to_one_engine_call(
        self, server
    ):
        """The acceptance check: 8 identical analyze submissions, one
        vectorized-engine invocation, 8 byte-identical results."""
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

    def test_batch_compatible_analyze_jobs_fuse(self, server):
        client = ServeClient(port=server.port)
        specs = [
            JobSpec(kind="analyze", u=u, p=p, cache=False)
            for u, p in ((2, 2), (2, 3), (3, 2))
        ]
        results = client.run_many(specs, timeout=120)
        assert all(r.ok for r in results)
        for spec, result in zip(specs, results):
            solo = run_job(spec)
            assert _norm(result.output) == _norm(solo.output)
        stats = client.stats()["server"]
        assert stats["analysis.engine_calls"] == 1
        assert stats["serve.batches"] == 1
        assert stats["serve.batched_jobs"] == 3

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

    def test_event_stream_ends_with_job_done(self, server):
        client = ServeClient(port=server.port)
        job_id = client.submit(JobSpec(kind="simulate", u=2, p=2))["job_id"]
        events = list(client.iter_events(job_id))
        assert events
        assert events[-1]["type"] == "job_done"
        assert events[-1]["status"] == "ok"
        # The simulator's instrumentation flowed through the job registry.
        assert any(e.get("type") == "span_end" for e in events)

    def test_unknown_job_is_404(self, server):
        from repro.serve import ServeError

        client = ServeClient(port=server.port)
        with pytest.raises(ServeError) as excinfo:
            client.status("j999999")
        assert excinfo.value.status == 404

    def test_malformed_spec_is_400(self, server):
        from repro.serve import ServeError

        client = ServeClient(port=server.port)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/jobs", {"kind": "nope"})
        assert excinfo.value.status == 400

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
    """Hold jobs of ``held_kinds`` in the worker until the block exits,
    then release them and wait for the worker to finish: a
    budget-orphaned worker keeps its registry installed process-wide, so
    it must not outlive its test."""
    real_run_job = dispatch_mod.run_job
    release = threading.Event()
    finished = threading.Event()

    def slow_run_job(spec, registry=None, limits=None):
        if spec.kind not in held_kinds:
            return real_run_job(spec, registry=registry, limits=limits)
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

    def test_job_outliving_its_server_loop_is_ok(self):
        """A late worker's events go to a closed loop; the sink drops
        them instead of failing the job."""
        import asyncio

        from repro import obs
        from repro.serve.server import loop_sink

        loop = asyncio.new_event_loop()
        loop.close()
        registry = obs.Registry()
        registry.add_sink(loop_sink(loop, lambda event: None))
        result = run_job(JobSpec(kind="simulate", u=2, p=2), registry=registry)
        assert result.ok, result.error


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
