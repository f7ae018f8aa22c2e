"""One workload process: set up, run passes for a time budget, check.

Started by ``run.py`` (never imported by it), in a fresh interpreter
whose ``PYTHONPATH`` points at the checkout's ``src``.  Modes:

* ``setup`` -- set up, report the time since the parent spawned this
  process, exit;
* ``run`` -- set up, run whole passes until ``--seconds`` have elapsed,
  check every output, report the end-to-end metrics;
* ``trace`` -- as ``run``, with an ``obs`` registry installed and
  benchmark-owned spans around each public call; reports the per-layer
  metrics and can write the spans as JSON lines.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import statistics
import sys
import threading
import time

import workloads
from repro import obs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Layers with benchmark-owned spans; a span ``<layer>.<call>`` belongs to
#: ``<layer>``, and ``job`` spans hold the glue between layer calls.
LAYERS = ("ir", "expansion", "mapping", "compile", "machine", "depanalysis",
          "symbolic", "serve")

#: Host speed drifts by +-15% over seconds on shared machines, and a
#: fixed pure-Python loop slows down with the workload (correlation about
#: 0.95), so the end-to-end times are rescaled by it: a "reference second"
#: is a host second on a host where one loop takes ``CAL_REF_S`` of
#: thread CPU time.  Thread CPU time leaves out waits for the GIL.
CAL_ITERATIONS = 20_000
CAL_REF_S = 0.001
#: Share of each client's time spent calibrating, between jobs.
CAL_DUTY = 0.02

#: obs counters read per pass: BENCHMARK.json name -> counter name.
COUNTERS = {
    "mapping.candidates_enumerated": "mapping.candidates_enumerated",
    "mapping.designs_found": "mapping.designs_found",
    "mapping.cache_hits": "mapping.cache_hits",
    "mapping.cache_misses": "mapping.cache_misses",
    "machine.points": "machine.computations",
    "machine.store_reads": "machine.store_reads",
    "machine.store_writes": "machine.store_writes",
    "symbolic.memo_hits": "symbolic.memo_hits",
    "cache.hits": "cache.hits",
    "cache.misses": "cache.misses",
    "cache.writes": "cache.writes",
    "cache.put_bytes": "cache.put_bytes",
    "cache.lock_timeouts": "cache.lock_timeouts",
    "cache.kernel_hits": "cache.kernel_hits",
    "cache.kernel_misses": "cache.kernel_misses",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent, job, workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent["job"]
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None, "job": job,
                  "workload": self.workload, "attrs": {}}
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)


class NullTracer:
    """The untraced run: spans cost one call and record nothing."""

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        yield {}


def calibrate() -> float:
    """Thread CPU seconds of one fixed pure-Python loop."""
    start = time.thread_time()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    return time.thread_time() - start


def _percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated (``statistics`` inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(workload, ctx, seed, seconds, scale, on_pass_end=None):
    """Closed-loop passes until ``seconds`` elapse.

    Returns the job records, the wall time, and the calibration samples
    taken between jobs.
    """
    records = []
    samples: list[float] = []
    lock = threading.Lock()
    t0 = time.perf_counter()
    for pass_index in itertools.count():
        jobs = workload.jobs(seed, pass_index, scale)
        workload.start_pass(ctx, pass_index)
        queue = iter(enumerate(jobs))

        def client():
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return
                i, job = item
                while len(samples) * CAL_REF_S <= CAL_DUTY * (
                        time.perf_counter() - t0):
                    samples.append(calibrate())
                inputs = workload.prepare(job)
                rec = {"pass": pass_index, "job": job, "inputs": inputs,
                       "out": None, "error": None}
                start = time.perf_counter()
                try:
                    with ctx.tracer.span("job", job=f"{pass_index}.{i}"):
                        rec["out"] = workload.run(ctx, job, inputs)
                except Exception as exc:  # a failed job is counted, not fatal
                    rec["error"] = f"{type(exc).__name__}: {exc}"
                rec["latency"] = time.perf_counter() - start
                with lock:
                    records.append(rec)

        threads = [threading.Thread(target=client)
                   for _ in range(workload.clients - 1)]
        for t in threads:
            t.start()
        client()
        for t in threads:
            t.join()
        if on_pass_end is not None:
            on_pass_end(pass_index, records)
        if time.perf_counter() - t0 >= seconds:
            return records, time.perf_counter() - t0, samples


def check_records(workload, ctx, records) -> list[str]:
    """Run every check; one problem string per failed job."""
    problems = []
    for rec in records:
        if rec["error"] is not None:
            found = [rec["error"]]
        else:
            try:
                found = workload.check(ctx, rec["job"], rec["inputs"],
                                       rec["out"])
            except Exception as exc:
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems.append(f"job {rec['pass']}:{rec['job']!r:.120}: "
                            + "; ".join(found))
    return problems


def e2e_metrics(records, wall: float, scale: float) -> dict:
    """Throughput and latency percentiles, times multiplied by ``scale``."""
    latencies = [rec["latency"] for rec in records]
    return {
        "jobs_per_s": len(records) / (wall * scale),
        "job_p50_s": statistics.median(latencies) * scale,
        "job_p90_s": _percentile(latencies, 90) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _self_times(spans):
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = (children.get(s["parent"], 0.0)
                                     + s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - children.get(s["id"], 0.0)
            for s in spans}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median_dur(spans, name, **match) -> float:
    durs = [s["end"] - s["start"] for s in spans if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in match.items())]
    return statistics.median(durs) if durs else 0.0


def layer_metrics(spans, records, counters) -> dict:
    """Per-layer metrics from spans (all passes) and counters (pass 0)."""
    job_spans = [s for s in spans if s["job"] != "setup"]
    self_s = _self_times(spans)
    wall = sum(s["end"] - s["start"] for s in job_spans if s["name"] == "job")
    per_layer = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for s in job_spans:
        if s["name"] == "job":
            unattributed += self_s[s["id"]]
        else:
            per_layer[s["name"].split(".")[0]] += self_s[s["id"]]
    m = {"job.wall_s": wall, "job.unattributed_s": unattributed}
    for layer, seconds in per_layer.items():
        m[f"{layer}.self_pct"] = 100.0 * _ratio(seconds, wall)
    for name, counter in COUNTERS.items():
        m[name] = counters.get(counter, 0)
    m["mapping.useful_ratio"] = _ratio(m["mapping.designs_found"],
                                       m["mapping.candidates_enumerated"])
    m["cache.hit_ratio"] = _ratio(m["cache.hits"],
                                  m["cache.hits"] + m["cache.misses"])

    first = [rec["out"] for rec in records
             if rec["pass"] == 0 and rec["out"] is not None]
    m["mapping.best_makespan_sum"] = sum(o.get("time", 0) for o in first)
    m["mapping.best_pes_sum"] = sum(o.get("processors", 0) for o in first)
    m["machine.makespan_sum"] = sum(o.get("makespan", 0) for o in first)
    m["depanalysis.instances"] = sum(o.get("instances", 0) for o in first)

    def rate(name, attr):
        chosen = [s for s in job_spans if s["name"] == name]
        return _ratio(sum(s["attrs"].get(attr, 0) for s in chosen),
                      sum(s["end"] - s["start"] for s in chosen))

    m["machine.points_per_s"] = rate("machine.run", "points")
    m["depanalysis.instances_per_s"] = rate("depanalysis.analyze", "instances")
    m["compile.first_run_over_warm"] = _ratio(
        _median_dur(spans, "compile.first_run"),
        _median_dur(job_spans, "machine.run"))
    m["depanalysis.cold_over_warm"] = _ratio(
        _median_dur(job_spans, "depanalysis.analyze", cold=True),
        _median_dur(job_spans, "depanalysis.analyze", cold=False))

    served = [rec for rec in records if rec["out"] is not None
              and "elapsed_s" in rec["out"]]
    ran = [rec for rec in served if not rec["out"]["coalesced"]]
    m["serve.overhead_pct"] = 100.0 * _ratio(
        sum(rec["latency"] - rec["out"]["elapsed_s"] for rec in ran),
        sum(rec["latency"] for rec in ran))
    m["serve.coalesced_ratio"] = _ratio(len(served) - len(ran), len(served))
    return m


def served_counters(records) -> dict:
    """Counters of the server's per-job registries, summed over pass 0."""
    total: dict = {}
    for rec in records:
        out = rec["out"]
        if rec["pass"] or out is None or out["coalesced"] or not out["metrics"]:
            continue
        for name, value in out["metrics"].get("counters", {}).items():
            total[name] = total.get(name, 0) + value
    return total


def measure(workload, ctx, args) -> dict:
    """The measured loop, the checks, and the metrics of one process."""
    traced = args.mode == "trace"
    registry = None
    if traced and workload.clients == 1:
        # serve_mix jobs run under the server's own per-job registries.
        registry = obs.Registry()
        obs.set_registry(registry)
    pass0: dict = {}

    def on_pass_end(pass_index, records):
        if pass_index == 0 and registry is not None:
            pass0.update(registry.metrics()["counters"])

    try:
        records, wall, samples = run_passes(
            workload, ctx, args.seed, args.seconds, args.scale, on_pass_end)
    finally:
        obs.set_registry(None)
    problems = check_records(workload, ctx, records)
    calibration_s = statistics.median(samples)
    report = {
        "attempted": len(records),
        "failed": len(problems),
        "problems": problems[:20],
        "passes": 1 + max(rec["pass"] for rec in records),
        "calibration_s": calibration_s,
        "mean_job_ref_s": statistics.fmean(rec["latency"] for rec in records)
        * CAL_REF_S / calibration_s,
        "e2e": e2e_metrics(records, wall, CAL_REF_S / calibration_s),
        "e2e_host": e2e_metrics(records, wall, 1.0),
    }
    if traced:
        counters = pass0 if registry is not None else served_counters(records)
        report["layers"] = layer_metrics(ctx.tracer.spans, records, counters)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                for s in sorted(ctx.tracer.spans, key=lambda s: s["start"]):
                    fh.write(json.dumps(s, default=str) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.REGISTRY))
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before spawning")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--environment", action="store_true",
                        help="add repro.obs.environment_info() to the report")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(obs.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {obs.__file__}, not {src}")

    workload = workloads.REGISTRY[args.workload]
    traced = args.mode == "trace"
    tracer = Tracer(args.workload) if traced else NullTracer()
    ctx = workloads.Context(tracer, args.work_dir, args.scale)
    try:
        workload.setup(ctx)
        report: dict = {"setup_s": time.time() - args.spawned_at}
        if args.mode != "setup":
            report.update(measure(workload, ctx, args))
        if args.environment:
            report["environment"] = obs.environment_info()
    finally:
        workload.teardown(ctx)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
