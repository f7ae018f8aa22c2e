"""End-to-end pipeline benchmark: run a workload, check it, print its metrics.

    python3 benchmarks/pipeline/run.py --workload design_flow --seed 0 \\
        --seconds 10 --trace 0

Every measurement happens in a fresh Python process (``measure.py``)
started from the checkout root with ``PYTHONPATH=src`` and without the
``REPRO_SIM_BACKEND``/``REPRO_ANALYSIS_BACKEND``/``REPRO_CACHE_DIR``
overrides; this script only starts those processes, waits for them and
combines what they report.

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json.  ``setup_s``
  is the median of three processes' set-up times (spawn to first
  measured job); the third process then runs the measured loop.
* ``--trace 1``: the per-layer metrics of BENCHMARK.json, from a traced
  process, plus ``obs.overhead_frac`` against an untraced process run
  just before it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 whenever that line is printed (``correct`` says whether every check
passed) and 2 when a workload process fails, without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
SETUP_SAMPLES = 3
#: Every process started for one workload ends (or is killed) by then.
DEADLINE_S = 170.0
DROPPED_ENV = ("REPRO_SIM_BACKEND", "REPRO_ANALYSIS_BACKEND", "REPRO_CACHE_DIR")


class ChildFailed(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Launcher:
    """Starts one workload's ``measure.py`` processes under one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
        )

    def __call__(self, workload: str, mode: str, *extra: str) -> dict:
        self.count += 1
        work = WORK / f"{os.getpid()}-{self.count}"
        work.mkdir(parents=True)
        a = self.args
        cmd = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--mode", mode, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--scale", a.scale,
               "--work-dir", str(work), *extra]
        try:
            spawned_at = time.time()
            proc = subprocess.run(
                [*cmd, "--spawned-at", repr(spawned_at)], cwd=ROOT,
                env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{workload}/{mode} passed the deadline") from exc
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(
                f"{workload}/{mode} exited with code {proc.returncode}"
            )
        return json.loads(lines[-1])


def run_workload(launch: Launcher, workload: str, args) -> dict:
    """Measure one workload; returns the record kept by ``--out``."""
    env_flag = ("--environment",) if args.out else ()
    if args.trace:
        base = launch(workload, "run")
        trace_out = ("--trace-out", args.trace_out) if args.trace_out else ()
        report = launch(workload, "trace", *trace_out, *env_flag)
        metrics = dict(report["layers"])
        metrics["obs.overhead_frac"] = (
            report["mean_job_ref_s"] / base["mean_job_ref_s"] - 1.0
        )
        reports = [base, report]
    else:
        setups = [launch(workload, "setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        report = launch(workload, "run", *env_flag)
        setups.append(report["setup_s"])
        metrics = dict(report["e2e"], setup_s=statistics.median(setups))
        reports = [report]
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "passes": report["passes"],
        "metrics": metrics,
        "host_metrics": report["e2e_host"],
        "calibration_s": report["calibration_s"],
        "problems": [p for r in reports for p in r["problems"]],
    }
    if not args.trace:
        record["setup_samples"] = setups
    if "environment" in report:
        record["environment"] = report["environment"]
    return record


def append_record(path: str, set_name: str, record: dict) -> None:
    """Add a run to ``{"sets": {name: {"environment", "runs"}}}`` in ``path``."""
    file = Path(path)
    data = json.loads(file.read_text()) if file.exists() else {"sets": {}}
    entry = data["sets"].setdefault(set_name, {"runs": []})
    environment = record.pop("environment", None)
    if environment is not None:
        entry.setdefault("environment", environment)
    entry["runs"].append(record)
    file.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure whole passes until this much time "
                             "has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="with --trace 1: write the spans as JSON lines")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny instances, for the tests")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append each run record to this JSON file")
    parser.add_argument("--set", default="runs", dest="set_name",
                        help="the set in --out that the runs join")
    args = parser.parse_args(argv)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    records = []
    try:
        for workload in chosen:
            records.append(run_workload(Launcher(args), workload, args))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass

    metrics = {}
    for record in records:
        prefix = "" if len(chosen) == 1 else f"{record['workload']}."
        for m in wanted:
            value = record["metrics"][m["name"]]
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{record['workload']:<15} {m['name']:<32} "
                  f"{value:>16.6g} {m['unit']}")
        for problem in record["problems"]:
            print(f"FAILED {record['workload']}: {problem}", file=sys.stderr)
        if args.out:
            append_record(args.out, args.set_name, record)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
