"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 benchmarks/pipeline/compare.py A.json B.json
    python3 benchmarks/pipeline/compare.py baseline.json:A baseline.json:B \\
        --claim design_flow:jobs_per_s

Each argument is a file written by ``run.py --out`` (``FILE`` when it
holds one set, ``FILE:SET`` to pick one).  Directions and bounds come
from BENCHMARK.json.  A row's verdict is one of

* ``improved`` -- every B run is better than every A run, or B is better
  and the quartile ranges of A and B do not overlap;
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- a side's spread (quartile distance over median) is
  wider than the bound and the quartile ranges overlap, so the runs
  cannot tell the two apart;
* ``no-worse`` -- otherwise.

``--claim WORKLOAD:METRIC`` pairs the runs of the two sides by seed and
applies the claim rule: B wins at least 9 of every 10 pairs (ties count
for neither side) and the medians differ by more than A's quartile
distance.  The exit code is 1 when a row regressed or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(arg: str) -> list[dict]:
    """The untraced run records of ``FILE`` or ``FILE:SET``."""
    path, _, name = arg.partition(":")
    sets = json.loads(Path(path).read_text())["sets"]
    if not name:
        if len(sets) != 1:
            raise SystemExit(f"{path} holds sets {sorted(sets)}; pick one "
                             f"with {path}:SET")
        (name,) = sets
    return [r for r in sets[name]["runs"] if not r["trace"]]


def verdict(a, b, better: str, bound: float) -> str:
    """One row's verdict for values ``a`` (before) and ``b`` (after)."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "improved"
    # In "worse is positive" orientation, quartile ranges and the change.
    lo_a, hi_a = sorted((sign * qa[0], sign * qa[2]))
    lo_b, hi_b = sorted((sign * qb[0], sign * qb[2]))
    separated = hi_b < lo_a or lo_b > hi_a
    worse = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    if spread > bound and not separated:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < 0 and separated:
        return "improved"
    return "no-worse"


def claim(a_runs, b_runs, workload: str, metric: str, better: str) -> dict:
    """The 9-of-10-pairs rule over runs paired by seed."""
    def by_seed(runs):
        return {r["seed"]: r["metrics"][metric] for r in runs
                if r["workload"] == workload}

    a, b = by_seed(a_runs), by_seed(b_runs)
    seeds = sorted(set(a) & set(b))
    if not seeds:
        raise SystemExit(f"no seed has a {workload} run on both sides")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b[s] - a[s]) < 0 for s in seeds)
    qa = quartiles([a[s] for s in seeds])
    med_b = statistics.median(b[s] for s in seeds)
    met = wins >= 0.9 * len(seeds) and abs(med_b - qa[1]) > qa[2] - qa[0]
    return {"pairs": len(seeds), "wins": wins, "met": met}


def compare(a_runs, b_runs, spec: dict) -> list[dict]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a = [r for r in a_runs if r["workload"] == workload]
        b = [r for r in b_runs if r["workload"] == workload]
        if not a or not b:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a]
            vb = [r["metrics"][m["name"]] for r in b]
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "a": quartiles(va), "b": quartiles(vb), "runs": (len(va), len(vb)),
                "verdict": verdict(va, vb, m["better"], m["bound"]),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the runs before: FILE or FILE:SET")
    parser.add_argument("b", help="the runs after: FILE or FILE:SET")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="apply the paired 9-of-10 rule to this metric")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)

    def fmt(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    status = 0
    print(f"{'workload':<15} {'metric':<12} {'A median [Q1, Q3]':>34} "
          f"{'B median [Q1, Q3]':>34} {'change':>8}  verdict")
    for row in compare(a_runs, b_runs, spec):
        change = 100 * (row["b"][1] - row["a"][1]) / row["a"][1]
        print(f"{row['workload']:<15} {row['metric']:<12} {fmt(row['a']):>34} "
              f"{fmt(row['b']):>34} {change:>+7.1f}%  {row['verdict']} "
              f"({row['runs'][0]} vs {row['runs'][1]} runs, {row['unit']})")
        status |= row["verdict"] == "regressed"
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for item in args.claim:
        workload, _, metric = item.partition(":")
        if metric not in better:
            raise SystemExit(f"--claim takes an end-to-end metric, not {metric!r}")
        result = claim(a_runs, b_runs, workload, metric, better[metric])
        print(f"claim {workload}:{metric}: B better in {result['wins']} of "
              f"{result['pairs']} pairs -> "
              f"{'met' if result['met'] else 'not met'}")
        status |= not result["met"]
    return status


if __name__ == "__main__":
    sys.exit(main())
