"""Tests of the pipeline benchmark (``pytest benchmarks/pipeline``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
#: Per-layer metrics that must repeat exactly for one seed.
EXACT = ("mapping.best_makespan_sum", "mapping.best_pes_sum",
         "machine.makespan_sum", "machine.points", "machine.store_reads",
         "depanalysis.instances")


def smoke_run(trace: int, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--scale", "smoke", "--seconds", "0.01", "--seed", str(seed),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return smoke_run(trace=1)


def test_workload_names_match():
    assert NAMES == list(workloads.REGISTRY)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(trace, traced):
    result = traced if trace else smoke_run(trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(NAMES)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in NAMES for m in wanted}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_self_times_add_up_to_job_wall(traced):
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    for w in NAMES:
        wall = metrics[f"{w}.job.wall_s"]
        layers = sum(metrics[f"{w}.{layer}.self_pct"] for layer in measure.LAYERS)
        total = wall * layers / 100 + metrics[f"{w}.job.unattributed_s"]
        assert total == pytest.approx(wall, rel=0.02)


def test_same_seed_same_jobs_and_exact_metrics(traced):
    for name, w in workloads.REGISTRY.items():
        for scale in workloads.SCALES:
            jobs = w.jobs(7, 0, scale)
            assert jobs == w.jobs(7, 0, scale)
            assert jobs != w.jobs(8, 0, scale), name
            assert json.loads(json.dumps(jobs)) == jobs
    again = smoke_run(trace=1)
    for w in NAMES:
        for m in EXACT:
            key = f"{w}.{m}"
            assert again["metrics"][key] == traced["metrics"][key], key


def _record(job, inputs, out):
    return {"pass": 0, "job": job, "inputs": inputs, "out": out, "error": None}


def test_corrupt_product_or_makespan_fails_the_check(tmp_path):
    w = workloads.REGISTRY["sim_stream"]
    ctx = workloads.Context(measure.NullTracer(), str(tmp_path), "smoke")
    w.setup(ctx)
    job = w.jobs(0, 0, "smoke")[0]
    inputs = w.prepare(job)
    out = w.run(ctx, job, inputs)
    assert w.check(ctx, job, inputs, out) == []

    bad_product = dict(out, product=[row[:] for row in out["product"]])
    bad_product["product"][0][0] ^= 1
    bad_makespan = dict(out, makespan=out["makespan"] + 1)
    records = [_record(job, inputs, o) for o in (out, bad_product, bad_makespan)]
    problems = measure.check_records(w, ctx, records)
    assert len(problems) == 2
    assert "product" in problems[0] and "makespan" in problems[1]


def _runs_file(path, values_by_metric, seeds=range(10)):
    runs = [
        {"workload": "design_flow", "seed": s, "trace": 0,
         "metrics": {m: values[i] for m, values in values_by_metric.items()}}
        for i, s in enumerate(seeds)
    ]
    path.write_text(json.dumps({"sets": {"only": {"runs": runs}}}))
    return str(path)


def _steady(median, spread=0.01):
    return [median * (1 + spread * (i - 4.5) / 4.5) for i in range(10)]


def test_compare_flags_regression_and_reports_noise(tmp_path, capsys):
    base = {m["name"]: _steady(1.0) for m in SPEC["end_to_end"]}
    after = dict(base)
    after["jobs_per_s"] = _steady(0.7)  # 30% fewer jobs per second
    after["job_p50_s"] = [1.0 + (0.6 if i % 2 else -0.6) for i in range(10)]
    after["job_p90_s"] = _steady(0.5)  # every run faster
    rows = {r["metric"]: r["verdict"] for r in compare.compare(
        compare.load_runs(_runs_file(tmp_path / "a.json", base)),
        compare.load_runs(_runs_file(tmp_path / "b.json", after)), SPEC)}
    assert rows == {"setup_s": "no-worse", "jobs_per_s": "regressed",
                    "job_p50_s": "unresolved", "job_p90_s": "improved",
                    "peak_rss_mb": "no-worse"}

    status = compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                           "--claim", "design_flow:job_p90_s"])
    out = capsys.readouterr().out
    assert status == 1  # the jobs_per_s regression
    assert "regressed" in out and "10 of 10 pairs -> met" in out


def test_claim_needs_nine_of_ten_pairs():
    a = [{"workload": "w", "seed": s, "metrics": {"t": 1.0}} for s in range(10)]
    b = [{"workload": "w", "seed": s, "metrics": {"t": 0.5 if s < 8 else 2.0}}
         for s in range(10)]
    assert not compare.claim(a, b, "w", "t", "lower")["met"]
    b[8]["metrics"]["t"] = 0.5
    assert compare.claim(a, b, "w", "t", "lower") == {
        "pairs": 10, "wins": 9, "met": True}
