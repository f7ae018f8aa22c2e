"""Benchmark: the compiled backend vs the pointwise reference.

Times the ``compiled`` per-design codegen engine against the pointwise
interpreter on the same bit-level matmul instances and checks they agree
exactly -- same product, same :class:`SimulationResult`, same
``machine.*`` metrics -- so the speedup is measured on provably
identical work.  Also measures the cold compile that the in-process
program memo amortizes.

Besides the pytest-benchmark kernels, this module doubles as a script:

* ``python benchmarks/bench_compiled.py --smoke`` runs the u=p=8
  add-shift instance on both backends, asserts identical results and a
  >= 3x compiled-vs-pointwise speedup -- the CI guard.
* ``python benchmarks/bench_compiled.py --record`` measures the same
  instance plus the cold-compile timing and updates
  ``BENCH_compiled.json`` at the repo root.
"""

import argparse
import json
import pathlib
import random
import time

import pytest

from repro import obs
from repro.compile.plan import clear_plan_memo
from repro.compile.runner import clear_program_memo
from repro.experiments.tables import format_table
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.mapping import designs

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_compiled.json"


def _operands(u, p, seed=0):
    rng = random.Random(seed)
    x = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    return x, y


def _timed_run(u, p, backend, repeats=3, expansion="II", design="fig4",
               warmup=0):
    """Best-of-N wall clock plus the (identical) run and metrics.

    Timing happens without an active metrics registry (per-PE gauge
    emission is a backend-invariant constant that would dilute the
    engine ratio); one extra collected run supplies the metrics for the
    identity assertions.
    """
    x, y = _operands(u, p)
    mapping = (
        designs.fig5_mapping(p) if design == "fig5" else designs.fig4_mapping(p)
    )
    machine = BitLevelMatmulMachine(u, p, mapping, expansion, backend=backend)
    for _ in range(warmup):
        machine.run(x, y)  # compile/allocator warm-up outside the clock
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        machine.run(x, y)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    with obs.collecting() as reg:
        out = machine.run(x, y)
    metrics = obs.metrics_dict(reg)
    return best, out, metrics


def _assert_identical(runs, metrics, label):
    """``runs``/``metrics`` keyed by backend; pointwise is the reference."""
    ref = runs["pointwise"]
    m_ref = metrics["pointwise"]
    for backend, run in runs.items():
        if backend == "pointwise":
            continue
        m = metrics[backend]
        assert ref.product == run.product, f"{label}/{backend}: product diverged"
        assert ref.sim == run.sim, f"{label}/{backend}: result diverged"
        assert m_ref["counters"] == m["counters"], (
            f"{label}/{backend}: counters diverged"
        )
        assert m_ref["gauges"] == m["gauges"], (
            f"{label}/{backend}: gauges diverged"
        )


def _cold_compile_seconds(u, p):
    """Best of two full runs, each with every memo empty."""
    x, y = _operands(u, p)
    mapping = designs.fig4_mapping(p)
    cold = None
    for _ in range(2):
        clear_program_memo()
        clear_plan_memo()
        t0 = time.perf_counter()
        machine = BitLevelMatmulMachine(u, p, mapping, "II", backend="compiled")
        machine.run(x, y)
        elapsed = time.perf_counter() - t0
        cold = elapsed if cold is None else min(cold, elapsed)
    return cold


def _both_backends(u, p, repeats):
    runs, metrics, times = {}, {}, {}
    times["pointwise"], runs["pointwise"], metrics["pointwise"] = _timed_run(
        u, p, "pointwise", repeats=1
    )
    # The compiled engine runs in a few ms where allocator/frequency
    # warm-up dominates the first several iterations; give it untimed
    # warm-up runs and a deeper best-of.
    times["compiled"], runs["compiled"], metrics["compiled"] = _timed_run(
        u, p, "compiled", repeats=max(repeats, 5), warmup=3
    )
    _assert_identical(runs, metrics, f"u={u} p={p}")
    return runs, metrics, times


# -- pytest-benchmark kernels -----------------------------------------------

U, P = 4, 4
X, Y = _operands(U, P)


@pytest.fixture(scope="module", autouse=True)
def report(report_writer):
    yield
    rows = []
    data_rows = []
    for u, p in ((4, 4), (6, 6)):
        t_pw, run_pw, m_pw = _timed_run(u, p, "pointwise", repeats=1)
        t_c, run_c, m_c = _timed_run(u, p, "compiled", repeats=2)
        assert run_pw.product == run_c.product
        assert run_pw.sim == run_c.sim
        assert m_pw["counters"] == m_c["counters"]
        rows.append(
            (u, p, run_pw.sim.computations, f"{t_pw * 1e3:.1f}",
             f"{t_c * 1e3:.1f}", f"{t_pw / t_c:.1f}x")
        )
        data_rows.append({
            "u": u, "p": p, "points": run_pw.sim.computations,
            "pointwise_s": round(t_pw, 4), "compiled_s": round(t_c, 4),
            "speedup": round(t_pw / t_c, 2), "identical": True,
        })
    text = format_table(
        ["u", "p", "points", "pointwise ms", "compiled ms", "speedup"],
        rows,
        title="Compiled backend: add-shift bit-level matmul (fig4, exp II)",
    )
    report_writer(
        "compiled-backend", text,
        data={"backend": "compiled-vs-pointwise", "rows": data_rows},
    )


def test_bench_compiled_backend(benchmark):
    machine = BitLevelMatmulMachine(
        U, P, designs.fig4_mapping(P), "II", backend="compiled"
    )
    machine.run(X, Y)  # compile outside the timed region
    out = benchmark(machine.run, X, Y)
    assert out.sim.makespan == designs.t_fig4(U, P)


def test_bench_compiled_cold_compile(benchmark):
    mapping = designs.fig4_mapping(P)

    def cold():
        clear_program_memo()
        machine = BitLevelMatmulMachine(U, P, mapping, "II", backend="compiled")
        return machine.run(X, Y)

    out = benchmark(cold)
    assert out.sim.makespan == designs.t_fig4(U, P)


# -- script modes -----------------------------------------------------------

def _smoke() -> int:
    u = p = 8
    runs, _, times = _both_backends(u, p, repeats=3)
    speedup = times["pointwise"] / times["compiled"]
    print(f"smoke: u={u} p={p} ({runs['pointwise'].sim.computations} points)  "
          f"pointwise {times['pointwise'] * 1e3:.1f} ms  "
          f"compiled {times['compiled'] * 1e3:.1f} ms  "
          f"speedup {speedup:.1f}x  identical=True")
    assert speedup >= 3.0, (
        f"compiled speedup {speedup:.2f}x vs pointwise is below the "
        f"3x smoke floor"
    )
    return 0


def _record(repeats: int) -> int:
    u = p = 8
    print(f"recording u={u} p={p} add-shift instance (best of {repeats})...")
    runs, metrics, times = _both_backends(u, p, repeats)
    speedup = times["pointwise"] / times["compiled"]
    print(f"pointwise: {times['pointwise']:.3f}s  "
          f"compiled: {times['compiled']:.4f}s  "
          f"speedup {speedup:.1f}x  identical=True")

    cold = _cold_compile_seconds(u, p)
    print(f"cold compile+run: {cold * 1e3:.1f} ms")

    m_c = metrics["compiled"]
    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data.update({
        "instance": {
            "algorithm": "bit-level matmul (add-shift lattice)",
            "u": u, "p": p, "design": "fig4", "expansion": "II",
            "points": runs["pointwise"].sim.computations,
        },
        "environment": obs.environment_info(),
        "engine": {
            "pointwise": {"seconds": round(times["pointwise"], 4)},
            "compiled": {
                "seconds": round(times["compiled"], 4),
                "cold_compile_seconds": round(cold, 4),
                "store_reads": m_c["counters"].get("machine.store_reads"),
                "store_writes": m_c["counters"].get("machine.store_writes"),
            },
            "results_identical_across_backends": True,
            "speedup_compiled_vs_pointwise": round(speedup, 2),
        },
    })
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")
    assert speedup >= 3.0, (
        f"compiled speedup {speedup:.2f}x vs pointwise is below the "
        f"3x record floor"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--smoke", action="store_true",
                      help="u=p=8 on both backends; assert equal "
                           "results and >= 3x over pointwise")
    mode.add_argument("--record", action="store_true",
                      help="measure u=p=8 plus the cold-compile timing; "
                           "update BENCH_compiled.json")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for --record (best-of)")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    return _record(args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
