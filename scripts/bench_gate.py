#!/usr/bin/env python
"""The benchmark regression gate: hold the committed speedups in CI.

The repo's performance claims live in the ``BENCH_*.json`` records at the
repo root.  This gate runs each bench script's ``smoke()`` once, judges
every row it returns against :data:`TABLE`, and exits 1 when a row fails::

    python scripts/bench_gate.py [--report FILE]

A row is a **speedup** (``reference_s`` over ``fast_s``: a fast path
against its reference on identical work, both sides best-of-N seconds) or
a **counter** (``count``, over ``per`` when the row is a ratio of exact
counts).  Ratios transfer across machines; absolute seconds do not.  A row
passes when::

    measured >= max(floor, baseline * scale * TOLERANCE)

where ``baseline`` is the row's BENCH key, recorded at record scale, and
``scale`` discounts it when the smoke runs a smaller instance than the
record.  A row whose BENCH key does not resolve fails, as does every row
of a script whose ``smoke()`` raises (each smoke raises when its fast path
and its reference disagree).  ``--report FILE`` writes every row's sides,
``measured``, ``required``, ``baseline`` and verdict, plus the
environment, as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from repro import obs  # noqa: E402  (needs the path above)

#: The one allowance for machine variance: a smoke row must reach this
#: fraction of its scaled baseline.  On a 2-CPU x86-64 host every row
#: measures 2-8x what it requires, while an optimized path that loses its
#: speedup drops its ratio to about 1.
TOLERANCE = 0.2

#: row -> (bench script, BENCH file, key path, floor, smoke scale).  The
#: scale is 1 where the smoke runs the record's instance (or, for the
#: analysis rows, an instance of the record's sweep); the symbolic row
#: runs u=p=6 against the record's u=p=8, the solver row u=p=2 against
#: u=p=3.  A counter row without a BENCH file is held to its floor alone.
TABLE = {
    "analysis_symbolic": (
        "bench_analysis", "BENCH_analysis.json",
        "engine.speedup_symbolic_vs_scalar", 2.0, 1.0),
    "analysis_cache_warm": (
        "bench_analysis", "BENCH_analysis.json",
        "engine.speedup_warm_vs_cold", 2.0, 1.0),
    "compiled_kernel": (
        "bench_compiled", "BENCH_compiled.json",
        "engine.speedup_compiled_vs_pointwise", 3.0, 1.0),
    "compiled_convolution": (
        "bench_compiled", "BENCH_compiled.json",
        "model_convolution.speedup_compiled_vs_pointwise", 3.0, 1.0),
    "symbolic_instantiate": (
        "bench_symbolic", "BENCH_symbolic.json",
        "speedup_symbolic_vs_concrete", 20.0, 0.2),
    "search_memo_hits": (
        "bench_design_search", None, None, 1.0, 1.0),
    "design_search_solver": (
        "bench_design_search", "BENCH_design_search.json",
        "solver.candidates_ratio", 3.0, 0.2),
}


def measure() -> dict[str, dict]:
    """Each script's ``smoke()`` once; a script that raises, or returns no
    such row, fails each of its rows with the reason."""
    rows = {}
    for script in dict.fromkeys(entry[0] for entry in TABLE.values()):
        try:
            got = importlib.import_module(script).smoke()
            missing = f"{script}.smoke() returned no such row"
        except Exception as exc:  # the gate reports, it does not crash
            traceback.print_exc()
            got = {}
            missing = f"{script}.smoke() raised {type(exc).__name__}: {exc}"
        for name, entry in TABLE.items():
            if entry[0] == script:
                rows[name] = got.get(name, {"error": missing})
    return rows


def _baseline(bench: str, key: str) -> float | None:
    try:
        node = json.loads((ROOT / bench).read_text())
        for part in key.split("."):
            node = node[part]
        return float(node)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def judge(name: str, row: dict) -> dict:
    """``row``'s verdict under :data:`TABLE`; pure apart from reading the
    row's BENCH file."""
    script, bench, key, floor, scale = TABLE[name]
    verdict = {
        **row, "row": name, "script": script, "bench": bench, "key": key,
        "floor": floor, "scale": scale, "baseline": None, "required": floor,
        "measured": None, "passed": False,
    }
    if bench is not None:
        verdict["baseline"] = _baseline(bench, key)
        if verdict["baseline"] is None:
            verdict["required"] = None
            verdict["error"] = f"{bench} has no number at {key}"
            return verdict
        verdict["required"] = max(
            floor, verdict["baseline"] * scale * TOLERANCE
        )
    if "error" in row:
        return verdict
    if "fast_s" in row:
        verdict["measured"] = row["reference_s"] / row["fast_s"]
    else:
        verdict["measured"] = row["count"] / max(row.get("per", 1), 1)
    verdict["passed"] = verdict["measured"] >= verdict["required"]
    return verdict


def _line(v: dict) -> str:
    head = f"{'ok  ' if v['passed'] else 'FAIL'} {v['row']}:"
    if v["measured"] is None:
        return f"{head} {v['error']}"
    base = f" (baseline {v['baseline']})" if v["baseline"] is not None else ""
    if "fast_s" in v:
        sides = (f"{v['reference_s'] * 1e3:.1f} ms / "
                 f"{v['fast_s'] * 1e3:.2f} ms")
    else:
        sides = f"{v['count']}" + (f" / {v['per']}" if "per" in v else "")
    return (f"{head} {sides} = {v['measured']:.2f} >= {v['required']:.2f} "
            f"required{base}; {v['instance']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_gate",
        description="run the bench scripts' smoke rows and fail on a row "
        "below its floor or its committed BENCH_*.json baseline",
    )
    parser.add_argument("--report", metavar="FILE", default=None,
                        help="write every row's verdict as JSON to FILE")
    args = parser.parse_args(argv)
    if not __debug__:
        parser.error("the smokes check identity with assert; run without -O")
    verdicts = [judge(name, row) for name, row in measure().items()]
    ok = all(v["passed"] for v in verdicts)
    for v in verdicts:
        print(_line(v))
    print("bench gate: PASS" if ok else "bench gate: FAIL")
    if args.report:
        report = {"ok": ok, "tolerance": TOLERANCE, "rows": verdicts,
                  "environment": obs.environment_info()}
        pathlib.Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
