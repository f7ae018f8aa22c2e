"""The benchmark regression gate: guard the committed speedups in CI.

The repo's performance story lives in the committed ``BENCH_*.json``
baselines (the symbolic exact-analysis route over the scalar Diophantine
analyzer, the warm artifact cache over a cold analysis, compiled
simulation ~100x over the pointwise reference, symbolic instantiation
over concrete enumeration, the solver-backed search enumerating ~100x
fewer candidates than the catalog path on identical results).  Nothing
re-checked them per PR: a change could quietly slow the default analysis
route or break memoization and every test would stay green.  This module
re-measures the smoke-scale versions of those ratios and fails when one
drops below its requirement.

Gate semantics
--------------
Each check measures a **speedup ratio** (fast implementation vs its
reference on identical work), not absolute seconds -- ratios transfer
across machines, absolute times do not.  A check passes when::

    measured >= max(smoke_floor, committed_baseline * smoke_scale * tolerance)

where ``committed_baseline`` comes from the ``BENCH_*.json`` at the repo
root (recorded at larger problem sizes, so smoke-scale ratios are lower
-- hence the tolerance), ``tolerance`` defaults to
:data:`DEFAULT_TOLERANCE`, and ``smoke_floor`` is the same hard minimum
the corresponding ``benchmarks/bench_*.py --smoke`` guard asserts.  A
missing/unreadable baseline degrades to the floor alone.

Every run appends one JSON line to
``benchmarks/_reports/bench_gate_history.jsonl`` (environment, per-check
measurements, verdict) so regressions are diagnosable from history, and
can write the full report as JSON.

``inject_slowdown_s`` adds a synthetic ``time.sleep`` to every *fast*
measurement -- the self-test proving the gate actually fails when the
optimized paths regress (CI runs it with ``--self-test``).
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field

from repro import obs

__all__ = ["GateCheck", "GateReport", "run_gate", "main"]

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
HISTORY_PATH = REPO_ROOT / "benchmarks" / "_reports" / "bench_gate_history.jsonl"

#: Fraction of the committed (record-scale) baseline ratio a smoke-scale
#: re-measurement must reach.  Smoke problems are smaller, so their
#: ratios run well below record scale; 0.2 sits ~2-4x under the ratios
#: this container actually measures while still catching a real
#: serialization of any optimized path (which drops the ratio to ~1).
DEFAULT_TOLERANCE = 0.2

#: Hard minimums, mirroring the bench_*.py --smoke assertions.
FLOORS = {
    "analysis_symbolic": 2.0,
    "analysis_cache_warm": 2.0,
    "compiled_kernel": 3.0,
    "search_memo_hits": 1.0,
    "symbolic_instantiate": 20.0,
    "design_search_solver": 3.0,
}

#: Where each check's committed baseline ratio lives: file -> key path.
BASELINE_KEYS = {
    "analysis_symbolic": ("BENCH_analysis.json",
                          ("engine", "speedup_symbolic_vs_scalar")),
    "analysis_cache_warm": ("BENCH_analysis.json",
                            ("engine", "speedup_warm_vs_cold")),
    "compiled_kernel": ("BENCH_compiled.json",
                        ("engine", "speedup_compiled_vs_pointwise")),
    "symbolic_instantiate": ("BENCH_symbolic.json",
                             ("speedup_symbolic_vs_concrete",)),
    "design_search_solver": ("BENCH_design_search.json",
                             ("solver", "candidates_ratio")),
}

#: Smoke-to-record scale compensation per check.  The compiled speedup
#: grows with problem size (~100x recorded at u=p=8, ~50x at the smoke
#: u=p=6 on a 2-CPU x86-64 host), so its committed baseline is
#: discounted before the tolerance is applied; the analysis ratios
#: transfer near-1:1.
SMOKE_SCALE = {
    "compiled_kernel": 0.5,
    # the recorded 500x is vs concrete enumeration at u=p=8; the smoke
    # re-measurement runs the cheaper u=p=6 where the ratio sits ~100x
    "symbolic_instantiate": 0.2,
    # the recorded ~100x candidate reduction is at u=p=3; the smoke
    # u=p=2 instance has far fewer schedules to cut, the ratio sits ~9x
    "design_search_solver": 0.2,
}


@dataclass
class GateCheck:
    """One gate measurement and its verdict."""

    name: str
    metric: str
    measured: float
    required: float
    floor: float
    baseline: float | None
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "measured": round(self.measured, 3),
            "required": round(self.required, 3),
            "floor": self.floor,
            "baseline": self.baseline,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class GateReport:
    """The whole gate run."""

    checks: list[GateCheck] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE
    injected_slowdown_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "injected_slowdown_s": self.injected_slowdown_s,
            "checks": [c.as_dict() for c in self.checks],
            "environment": obs.environment_info(),
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            verdict = "ok  " if c.passed else "FAIL"
            base = f" (baseline {c.baseline}x)" if c.baseline else ""
            lines.append(
                f"{verdict} {c.name}: {c.metric} = {c.measured:.2f} "
                f">= {c.required:.2f} required{base}"
            )
        lines.append(
            "bench gate: PASS" if self.ok else "bench gate: FAIL"
        )
        return "\n".join(lines)


def _load_baseline(name: str) -> float | None:
    entry = BASELINE_KEYS.get(name)
    if entry is None:
        return None
    filename, keys = entry
    try:
        node = json.loads((REPO_ROOT / filename).read_text())
        for key in keys:
            node = node[key]
        return float(node)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _required(name: str, tolerance: float) -> tuple[float, float | None]:
    floor = FLOORS[name]
    baseline = _load_baseline(name)
    if baseline is None:
        return floor, None
    scale = SMOKE_SCALE.get(name, 1.0)
    return max(floor, baseline * scale * tolerance), baseline


def _best_of(fn, repeats: int, slowdown_s: float = 0.0) -> float:
    """Best-of-N wall clock of ``fn`` (+ an optional injected sleep)."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        if slowdown_s:
            time.sleep(slowdown_s)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _fast_repeats(repeats: int) -> int:
    """Repeat count for the millisecond-scale fast paths.

    A fast-path run is 1-20ms, where a scheduler hiccup is a 10x
    multiplicative spike; a single-shot measurement (``--repeats 1``)
    then fails the gate spuriously.  Best-of-3 floors the noise at
    negligible cost, while the slow reference paths (100ms+) keep the
    caller's ``repeats`` -- their relative noise is small.
    """
    return max(repeats, 3)


# -- the checks ---------------------------------------------------------------

def _check_analysis(report: GateReport, repeats: int, slowdown: float) -> None:
    from repro.depanalysis import AnalysisConfig, analyze
    from repro.depanalysis.engine import SHARED_STATS
    from repro.ir.expand import expand_bit_level

    u, p = 3, 2
    program = expand_bit_level(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [u, u, u], p, "II"
    )

    def run(backend="auto", cache=False, cache_dir=None):
        config = AnalysisConfig(backend=backend, cache=cache,
                                cache_dir=cache_dir)
        return analyze(program, {"p": p}, method="exact", config=config)

    r_scalar = r_symbolic = None

    def scalar():
        nonlocal r_scalar
        r_scalar = run("scalar")

    def symbolic():
        # The default route keeps no memo: every run solves from scratch.
        nonlocal r_symbolic
        r_symbolic = run()

    t_scalar = _best_of(scalar, repeats)
    t_symbolic = _best_of(symbolic, _fast_repeats(repeats), slowdown)
    identical = (
        [i.key() for i in r_scalar.instances]
        == [i.key() for i in r_symbolic.instances]
        and all(r_scalar.stats[k] == r_symbolic.stats[k] for k in SHARED_STATS)
    )
    required, baseline = _required("analysis_symbolic", report.tolerance)
    measured = t_scalar / t_symbolic
    report.checks.append(GateCheck(
        name="analysis_symbolic",
        metric="speedup_symbolic_vs_scalar",
        measured=measured,
        required=required,
        floor=FLOORS["analysis_symbolic"],
        baseline=baseline,
        passed=measured >= required and identical,
        detail=(f"u={u} p={p}: scalar {t_scalar * 1e3:.1f}ms, symbolic "
                f"{t_symbolic * 1e3:.1f}ms, identical={identical}"),
    ))

    with tempfile.TemporaryDirectory() as cache_dir:
        t_cold = _best_of(lambda: run(cache=True, cache_dir=cache_dir), 1)
        t_warm = _best_of(
            lambda: run(cache=True, cache_dir=cache_dir),
            _fast_repeats(repeats), slowdown,
        )
    required, baseline = _required("analysis_cache_warm", report.tolerance)
    measured = t_cold / t_warm
    report.checks.append(GateCheck(
        name="analysis_cache_warm",
        metric="speedup_warm_vs_cold",
        measured=measured,
        required=required,
        floor=FLOORS["analysis_cache_warm"],
        baseline=baseline,
        passed=measured >= required,
        detail=(f"cold {t_cold * 1e3:.1f}ms, warm {t_warm * 1e3:.1f}ms"),
    ))


def _check_compiled(report: GateReport, repeats: int, slowdown: float) -> None:
    import random

    from repro.compile.runner import clear_program_memo
    from repro.machine.bitlevel import BitLevelMatmulMachine
    from repro.mapping import designs

    u = p = 6
    rng = random.Random(0)
    x = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    products = {}
    machines = {
        backend: BitLevelMatmulMachine(
            u, p, designs.fig4_mapping(p), "II", backend=backend
        )
        for backend in ("pointwise", "compiled")
    }

    def run(backend):
        products[backend] = machines[backend].run(x, y).product

    clear_program_memo()
    run("compiled")  # compile outside the timed region
    t_pw = _best_of(lambda: run("pointwise"), repeats)
    # The compiled run takes a few milliseconds; measure best-of a deeper
    # repeat count than the slow reference.
    t_c = _best_of(
        lambda: run("compiled"), max(_fast_repeats(repeats), 5), slowdown
    )
    identical = products["pointwise"] == products["compiled"]
    required, baseline = _required("compiled_kernel", report.tolerance)
    measured = t_pw / t_c
    report.checks.append(GateCheck(
        name="compiled_kernel",
        metric="speedup_compiled_vs_pointwise",
        measured=measured,
        required=required,
        floor=FLOORS["compiled_kernel"],
        baseline=baseline,
        passed=measured >= required and identical,
        detail=(f"u=p={u}: pointwise {t_pw * 1e3:.1f}ms, compiled "
                f"{t_c * 1e3:.1f}ms, identical={identical}"),
    ))


def _check_symbolic(report: GateReport, repeats: int, slowdown: float) -> None:
    from repro.depanalysis import AnalysisConfig, analyze
    from repro.ir.expand import expand_bit_level
    from repro.structures.params import S
    from repro.symbolic import analyze_symbolic, clear_memo

    u = p = 6
    concrete_program = expand_bit_level(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [u, u, u], p, "II"
    )
    symbolic_program = expand_bit_level(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1],
        [S("u")] * 3, S("p"), "II",
    )
    clear_memo()
    symbolic = analyze_symbolic(symbolic_program, cache=False)

    r_concrete = None
    summary = None

    def concrete():
        nonlocal r_concrete
        r_concrete = analyze(
            concrete_program, {"p": p}, method="enumerate",
            config=AnalysisConfig(backend="scalar", cache=False),
        )

    def instantiate():
        nonlocal summary
        summary = symbolic.summary({"u": u, "p": p})

    t_concrete = _best_of(concrete, repeats)
    t_instantiate = _best_of(instantiate, _fast_repeats(repeats), slowdown)
    identical = (
        symbolic.closed_form
        and summary["instances"] == len(r_concrete.instances)
        and sorted(summary["distinct_vectors"])
        == sorted({i.vector for i in r_concrete.instances})
    )
    required, baseline = _required("symbolic_instantiate", report.tolerance)
    measured = t_concrete / t_instantiate
    report.checks.append(GateCheck(
        name="symbolic_instantiate",
        metric="speedup_instantiate_vs_concrete",
        measured=measured,
        required=required,
        floor=FLOORS["symbolic_instantiate"],
        baseline=baseline,
        passed=measured >= required and identical,
        detail=(f"u=p={u}: hash-join {t_concrete * 1e3:.1f}ms, instantiate "
                f"{t_instantiate * 1e3:.1f}ms, identical={identical}"),
    ))


def _check_search(report: GateReport) -> None:
    from repro.expansion.theorem31 import matmul_bit_level
    from repro.mapping import designs
    from repro.mapping.engine import SearchConfig, run_search

    alg = matmul_bit_level(2, 2, "II")
    with obs.collecting() as reg:
        found = run_search(
            alg, {"u": 2, "p": 2}, designs.fig4_primitives(2),
            SearchConfig(target_space_dim=2, block_values=[2],
                         max_candidates=5),
        )
    hits = reg.counters.get("mapping.cache_hits", 0)
    required = FLOORS["search_memo_hits"]
    report.checks.append(GateCheck(
        name="search_memo_hits",
        metric="mapping.cache_hits",
        measured=float(hits),
        required=required,
        floor=required,
        baseline=None,
        passed=hits >= required and bool(found),
        detail=f"{len(found)} designs found, {hits} memo hits",
    ))


def _check_search_solver(report: GateReport) -> None:
    """Guard the solver's candidate-enumeration cut vs the catalog path.

    Deterministic counter ratio, not wall clock: the enumerated-candidate
    counts are exact for a fixed instance, so this check is immune to CI
    timer noise while still catching any unsound weakening of the solver
    (identical results are asserted alongside the ratio).
    """
    from repro.expansion.theorem31 import matmul_bit_level
    from repro.mapping import designs
    from repro.mapping.engine import SearchConfig, run_search

    alg = matmul_bit_level(2, 2, "II")
    binding = {"u": 2, "p": 2}
    prims = designs.fig4_primitives(2)

    def run(strategy):
        config = SearchConfig(target_space_dim=2, block_values=[2],
                              max_candidates=5, strategy=strategy)
        with obs.collecting() as reg:
            found = run_search(alg, binding, prims, config)
        return found, reg.counters.get("mapping.candidates_enumerated", 0)

    catalog, n_catalog = run("catalog")
    solver, n_solver = run("solver")

    def sig(cands):
        return [
            (c.mapping.rows, c.time, c.processors, c.wire_length)
            for c in cands
        ]

    identical = sig(catalog) == sig(solver)
    measured = n_catalog / max(n_solver, 1)
    required, baseline = _required("design_search_solver", report.tolerance)
    report.checks.append(GateCheck(
        name="design_search_solver",
        metric="candidates_ratio_catalog_vs_solver",
        measured=measured,
        required=required,
        floor=FLOORS["design_search_solver"],
        baseline=baseline,
        passed=measured >= required and identical and bool(solver),
        detail=(f"u=p=2: catalog enumerated {n_catalog}, solver {n_solver}, "
                f"identical={identical}"),
    ))


# -- orchestration ------------------------------------------------------------

def run_gate(
    tolerance: float = DEFAULT_TOLERANCE,
    repeats: int = 3,
    inject_slowdown_s: float = 0.0,
    history_path: str | os.PathLike | None = HISTORY_PATH,
) -> GateReport:
    """Run every check and (best-effort) append the history record.

    ``history_path=None`` skips history entirely (tests use a tmp path).
    """
    report = GateReport(
        tolerance=tolerance, injected_slowdown_s=inject_slowdown_s
    )
    _check_analysis(report, repeats, inject_slowdown_s)
    _check_compiled(report, repeats, inject_slowdown_s)
    _check_symbolic(report, repeats, inject_slowdown_s)
    _check_search(report)
    _check_search_solver(report)
    if history_path is not None:
        record = {"timestamp": time.time(), **report.as_dict()}
        try:
            path = pathlib.Path(history_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_gate",
        description="re-measure the smoke benchmarks and fail on "
        "significant slowdowns vs the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the gate at smoke scale (the only scale; kept for CI "
        "symmetry with the bench scripts)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="fraction of each committed baseline ratio required at smoke "
        f"scale (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of-N timing repeats (default 3)",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the full gate report as JSON to FILE",
    )
    parser.add_argument(
        "--inject-slowdown-s", type=float, default=0.0, metavar="S",
        help="add a synthetic sleep to every fast-path measurement "
        "(gate self-test: must FAIL)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the gate fails under an injected slowdown, then exit",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append to benchmarks/_reports/bench_gate_history.jsonl",
    )
    args = parser.parse_args(argv)
    history = None if args.no_history else HISTORY_PATH

    if args.self_test:
        report = run_gate(
            tolerance=args.tolerance, repeats=1,
            inject_slowdown_s=0.25, history_path=None,
        )
        if report.ok:
            print("self-test FAILED: gate passed despite a 250ms injected "
                  "slowdown")
            return 1
        print(report.summary())
        print("self-test ok: injected slowdown was detected")
        return 0

    report = run_gate(
        tolerance=args.tolerance,
        repeats=args.repeats,
        inject_slowdown_s=args.inject_slowdown_s,
        history_path=history,
    )
    print(report.summary())
    if args.report:
        try:
            pathlib.Path(args.report).write_text(
                json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            print(f"bench_gate: cannot write report: {exc}")
            return 1
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
