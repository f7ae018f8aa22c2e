"""Benchmark: the compiled backend vs the pointwise reference.

Times the ``compiled`` backend's programs against the pointwise
interpreter on the same bit-level instances and checks they
agree exactly -- same product or outputs, same :class:`SimulationResult`,
same ``machine.*`` metrics -- so the speedup is measured on provably
identical work.  Two instances: the u=p=8 matmul on the fig4 design, and
a 16x16-point, p=8 convolution (model (3.5) at ``h̄ = (1,0), (1,-1),
(0,1)``, 16,384 lattice points) on the design ``BitLevelDesigner``
finds.  Also measures the cold compile that the in-process memos
amortize (fig4 and fig5, whose schedule plans are built there), and the
bytes of index arrays the u=p=16 value program keeps, which every design
at that size shares.

Besides the pytest-benchmark kernels:

* :func:`smoke` measures the ``compiled_kernel`` and
  ``compiled_convolution`` rows of the perf gate
  (``scripts/bench_gate.py``): both instances on both backends, raising
  when the results differ.
* ``python benchmarks/bench_compiled.py --record`` measures the same
  instances plus the fig4/fig5 cold-compile timings and the u=p=16
  value-program size, and updates ``BENCH_compiled.json`` at the repo
  root.
"""

import argparse
import itertools
import json
import pathlib
import random

import pytest
from _timing import best_of

from repro import obs
from repro.compile.model import compile_model_program
from repro.compile.plan import clear_plan_memo
from repro.compile.runner import clear_program_memo
from repro.experiments.tables import format_table
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.model import MATMUL_H
from repro.mapping import designs
from repro.pipeline import BitLevelDesigner

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_compiled.json"


def _operands(u, p, seed=0):
    rng = random.Random(seed)
    x = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    return x, y


def _mapping(design, p):
    return designs.fig5_mapping(p) if design == "fig5" else designs.fig4_mapping(p)


def _timed_run(u, p, backend, repeats=3, expansion="II", design="fig4",
               warmup=0):
    """Best-of-N wall clock plus the (identical) run and metrics.

    Timing happens without an active metrics registry (per-PE gauge
    emission is a backend-invariant constant that would dilute the
    engine ratio); one extra collected run supplies the metrics for the
    identity assertions.
    """
    x, y = _operands(u, p)
    machine = BitLevelMatmulMachine(
        u, p, _mapping(design, p), expansion, backend=backend
    )
    best, _ = best_of(lambda: machine.run(x, y), repeats, warmup)
    with obs.collecting() as reg:
        out = machine.run(x, y)
    metrics = obs.metrics_dict(reg)
    return best, out, metrics


def _assert_identical(runs, metrics, label, value=lambda run: run.product):
    """``runs``/``metrics`` keyed by backend; pointwise is the reference."""
    ref = runs["pointwise"]
    m_ref = metrics["pointwise"]
    for backend, run in runs.items():
        if backend == "pointwise":
            continue
        m = metrics[backend]
        assert value(ref) == value(run), f"{label}/{backend}: output diverged"
        assert ref.sim == run.sim, f"{label}/{backend}: result diverged"
        assert m_ref["counters"] == m["counters"], (
            f"{label}/{backend}: counters diverged"
        )
        assert m_ref["gauges"] == m["gauges"], (
            f"{label}/{backend}: gauges diverged"
        )


def _cold_compile_seconds(u, p, design="fig4"):
    """Best of two full runs, each with every memo empty."""
    x, y = _operands(u, p)
    mapping = _mapping(design, p)

    def clear():
        clear_program_memo()
        clear_plan_memo()

    cold, _ = best_of(
        lambda: BitLevelMatmulMachine(
            u, p, mapping, "II", backend="compiled"
        ).run(x, y),
        repeats=2, setup=clear,
    )
    return cold


def _program_index_bytes(n, design):
    """Bytes of int32 index arrays a compiled u=p=n run replays: its value
    program's, shared by fig4 and fig5."""
    program = compile_model_program(
        _mapping(design, n), *MATMUL_H, (1, 1, 1), (n, n, n), n, "II"
    )
    return program.index_bytes, program.plan.n_points


#: The convolution row: model (3.5) at these h̄ over [1..N]², p-bit words.
CONV_N, CONV_P = 16, 8


def _conv_row(repeats):
    """The BitLevelDesigner convolution, designed once, then timed best-of
    on both backends (the compiled side warmed up and at least best-of-5)
    with an identity check on the outputs, the result and the
    ``machine.*`` metrics."""
    n, p = CONV_N, CONV_P
    designer = BitLevelDesigner(h1=[1, 0], h2=[1, -1], h3=[0, 1],
                                lowers=[1, 1], uppers=[n, n], p=p)
    mapping = designer.design().mapping
    rng = random.Random(0)
    taps = [rng.randrange(1 << p) for _ in range(n)]
    signal = [rng.randrange(1 << p) for _ in range(2 * n - 1)]
    points = list(itertools.product(range(1, n + 1), repeat=2))
    xw = {j: taps[j[1] - 1] for j in points}
    yw = {j: signal[j[0] + j[1] - 2] for j in points}
    runs, metrics, times = {}, {}, {}
    for backend, reps, warmup in (("pointwise", repeats, 0),
                                  ("compiled", max(repeats, 5), 3)):
        machine = designer.build_machine(mapping)
        machine.backend = backend
        times[backend], _ = best_of(lambda: machine.run(xw, yw), reps,
                                    warmup)
        with obs.collecting() as reg:
            runs[backend] = machine.run(xw, yw)
        metrics[backend] = obs.metrics_dict(reg)
    _assert_identical(runs, metrics, "convolution", lambda r: r.outputs)
    return mapping, runs["pointwise"], times


def _both_backends(u, p, repeats):
    runs, metrics, times = {}, {}, {}
    times["pointwise"], runs["pointwise"], metrics["pointwise"] = _timed_run(
        u, p, "pointwise", repeats=repeats
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


# -- the gate rows and the record --------------------------------------------

def smoke() -> dict:
    """The perf gate's compiled rows: the u=p=8 matmul (fig4, Expansion II)
    and the 16x16 convolution, each timed on both backends (pointwise best
    of 3; compiled warmed up, best of 5).  Raises when a compiled run's
    output, result or ``machine.*`` metrics differ from pointwise."""
    u = p = 8
    _, _, times = _both_backends(u, p, repeats=3)
    _, _, conv_times = _conv_row(repeats=3)
    return {
        "compiled_kernel": {
            "instance": f"matmul u=p={u} fig4 exp II",
            "reference_s": times["pointwise"], "fast_s": times["compiled"],
        },
        "compiled_convolution": {
            "instance": f"convolution {CONV_N}x{CONV_N} p={CONV_P} exp II",
            "reference_s": conv_times["pointwise"],
            "fast_s": conv_times["compiled"],
        },
    }


def _record(repeats: int) -> int:
    u = p = 8
    print(f"recording u={u} p={p} add-shift instance (best of {repeats})...")
    runs, metrics, times = _both_backends(u, p, repeats)
    speedup = times["pointwise"] / times["compiled"]
    print(f"pointwise: {times['pointwise']:.3f}s  "
          f"compiled: {times['compiled']:.4f}s  "
          f"speedup {speedup:.1f}x  identical=True")

    cold = _cold_compile_seconds(u, p)
    cold_fig5 = _cold_compile_seconds(u, p, "fig5")
    print(f"cold compile+run: fig4 {cold * 1e3:.1f} ms, "
          f"fig5 {cold_fig5 * 1e3:.1f} ms")
    n = 16
    sizes = {}
    for design in ("fig4", "fig5"):
        nbytes, points = _program_index_bytes(n, design)
        sizes[design] = {"bytes": nbytes,
                         "bytes_per_point": round(nbytes / points, 2)}
        print(f"{design} u=p={n} program: {nbytes:,} B of index arrays "
              f"({nbytes / points:.2f} B/point)")

    mapping, conv, conv_times = _conv_row(repeats)
    conv_speedup = conv_times["pointwise"] / conv_times["compiled"]
    print(f"convolution {CONV_N}x{CONV_N} p={CONV_P} on {mapping.rows}: "
          f"pointwise {conv_times['pointwise']:.3f}s  "
          f"compiled {conv_times['compiled']:.4f}s  "
          f"speedup {conv_speedup:.1f}x  identical=True")

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
                "cold_compile_seconds_fig5": round(cold_fig5, 4),
                "store_reads": m_c["counters"].get("machine.store_reads"),
                "store_writes": m_c["counters"].get("machine.store_writes"),
            },
            "results_identical_across_backends": True,
            "speedup_compiled_vs_pointwise": round(speedup, 2),
        },
        "program_index_bytes": {
            "u": n, "p": n, "expansion": "II", **sizes,
        },
        "model_convolution": {
            "algorithm": "model (3.5) convolution, h = (1,0), (1,-1), (0,1)",
            "points": conv.sim.computations,
            "box": [CONV_N, CONV_N], "p": CONV_P, "expansion": "II",
            "mapping": [list(row) for row in mapping.rows],
            "pointwise_seconds": round(conv_times["pointwise"], 4),
            "compiled_seconds": round(conv_times["compiled"], 4),
            "speedup_compiled_vs_pointwise": round(conv_speedup, 2),
            "results_identical_across_backends": True,
        },
    })
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")
    for label, ratio in (("matmul", speedup), ("convolution", conv_speedup)):
        assert ratio >= 3.0, (
            f"{label}: compiled speedup {ratio:.2f}x vs pointwise is below "
            f"the 3x record floor"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="measure u=p=8 matmul and the convolution "
                             "plus the cold-compile timings and the u=p=16 "
                             "value-program size; update BENCH_compiled.json")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for --record (best-of)")
    args = parser.parse_args(argv)
    return _record(args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
