"""Benchmark: symbolic (closed-form) analysis vs concrete enumeration.

Times :func:`repro.symbolic.analyze_symbolic` -- the one-time parametric
solve and the O(1) instantiation of its closed form -- against the
concrete analyzer (:func:`repro.depanalysis.analyze`) on the same
bit-level matmul programs, asserting instance-count identity at every
cross-validated size.  The headline number is the instantiation latency
at ``u = p = 64/256/1024`` (flat in size, milliseconds) against the
concrete enumeration cost at the largest size concrete analysis can
still afford (``u = p = 8``, seconds).

Besides the pytest-benchmark kernels:

* :func:`smoke` measures the ``symbolic_instantiate`` row of the perf
  gate (``scripts/bench_gate.py``) at ``u = p = 6``: it solves once,
  checks instantiation against concrete analysis at two sizes, and raises
  on any difference or when the ``u = p = 1024`` answer takes a second
  or more.
* ``python benchmarks/bench_symbolic.py --record`` measures the solve,
  the instantiation latency ladder, and the concrete reference at
  ``u = p = 8`` (expecting the symbolic path >= 100x faster), each best
  of ``--repeats``, verifies
  instance counts at every rung, and updates ``BENCH_symbolic.json``
  at the repo root.
"""

import argparse
import json
import pathlib

import pytest
from _timing import best_of

from repro import obs
from repro.depanalysis import AnalysisConfig, analyze
from repro.experiments.tables import format_table
from repro.ir.expand import expand_bit_level
from repro.structures.params import S
from repro.symbolic import analyze_symbolic, clear_memo

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_symbolic.json"

_MATMUL_H = ([0, 1, 0], [1, 0, 0], [0, 0, 1])

#: Sizes where the closed form is cross-checked against concrete
#: enumeration (the last is also the concrete reference timing).
CROSSVAL_SIZES = ((3, 2), (4, 4), (6, 6), (8, 8))

#: The instantiation-latency ladder: flat in size is the whole point.
LADDER = (64, 256, 1024)


def _symbolic_program(expansion="II"):
    h1, h2, h3 = _MATMUL_H
    return expand_bit_level(
        h1, h2, h3, [1, 1, 1], [S("u")] * 3, S("p"), expansion
    )


def _concrete_program(u, p, expansion="II"):
    h1, h2, h3 = _MATMUL_H
    return expand_bit_level(h1, h2, h3, [1, 1, 1], [u, u, u], p, expansion)


def _timed_solve(program, repeats=1):
    """Best-of-N parametric solve (memo cleared so every run is real)."""
    return best_of(lambda: analyze_symbolic(program, cache=False), repeats,
                   setup=clear_memo)


def _timed_instantiate(result, u, p, repeats=3):
    return best_of(lambda: result.summary({"u": u, "p": p}), repeats)


def _timed_concrete(u, p, repeats=1):
    program = _concrete_program(u, p)
    config = AnalysisConfig(cache=False)
    return best_of(
        lambda: analyze(program, {"p": p}, method="enumerate", config=config),
        repeats,
    )


def _assert_identical(summary, concrete, label):
    assert summary["instances"] == len(concrete.instances), (
        f"{label}: symbolic {summary['instances']} vs concrete "
        f"{len(concrete.instances)} instances"
    )
    want_vectors = sorted({inst.vector for inst in concrete.instances})
    assert sorted(summary["distinct_vectors"]) == want_vectors, (
        f"{label}: distinct vectors diverged"
    )


# -- pytest-benchmark kernels -----------------------------------------------

@pytest.fixture(scope="module")
def solved():
    clear_memo()
    return analyze_symbolic(_symbolic_program(), cache=False)


@pytest.fixture(scope="module", autouse=True)
def report(report_writer):
    yield
    t_solve, result = _timed_solve(_symbolic_program())
    rows = []
    data_rows = []
    for u in LADDER:
        t_i, summary = _timed_instantiate(result, u, u)
        rows.append((u, u, summary["instances"], f"{t_i * 1e3:.2f}"))
        data_rows.append({
            "u": u, "p": u, "instances": summary["instances"],
            "instantiate_ms": round(t_i * 1e3, 3),
        })
    text = format_table(
        ["u", "p", "instances", "instantiate ms"],
        rows,
        title=(f"Symbolic analysis: {len(result.families)} families solved "
               f"in {t_solve * 1e3:.1f} ms, then O(1) instantiation"),
    )
    report_writer(
        "symbolic-analysis", text,
        data={"solve_s": round(t_solve, 4), "families": len(result.families),
              "rows": data_rows},
    )


def test_bench_solve(benchmark):
    program = _symbolic_program()

    def run():
        clear_memo()
        return analyze_symbolic(program, cache=False)

    result = benchmark(run)
    assert result.closed_form


def test_bench_instantiate_1024(benchmark, solved):
    summary = benchmark(solved.summary, {"u": 1024, "p": 1024})
    assert summary["instances"] > 4 * 10**15


def test_bench_concrete_reference(benchmark):
    _, result = benchmark(_timed_concrete, 3, 2)
    assert result.stats["instances"] > 0


# -- the gate row and the record ---------------------------------------------

def smoke() -> dict:
    """The perf gate's ``symbolic_instantiate`` row: O(1) instantiation of
    the closed form against the scalar hash-join at u=p=6, each side best
    of 3.  Raises when the closed form's instance count or distinct
    vectors differ from concrete analysis (at u=3, p=2 and at u=p=6), or
    when the u=p=1024 instantiation takes a second or more."""
    _, result = _timed_solve(_symbolic_program())
    assert result.closed_form, "matmul family must solve in closed form"
    _, concrete = _timed_concrete(3, 2)
    _, summary = _timed_instantiate(result, 3, 2, repeats=1)
    _assert_identical(summary, concrete, "u=3 p=2")
    u = p = 6
    t_c, concrete = _timed_concrete(u, p, repeats=3)
    t_i, summary = _timed_instantiate(result, u, p)
    _assert_identical(summary, concrete, f"u=p={u}")
    t_big, _ = _timed_instantiate(result, 1024, 1024, repeats=1)
    assert t_big < 1.0, (
        f"u=p=1024 instantiation took {t_big:.2f}s; closed form must be O(1)"
    )
    return {
        "symbolic_instantiate": {
            "instance": f"matmul u=p={u} exp II",
            "reference_s": t_c, "fast_s": t_i,
        },
    }


def _record(repeats: int) -> int:
    print(f"solving the parametric matmul system (best of {repeats})...")
    t_solve, result = _timed_solve(_symbolic_program(), repeats=repeats)
    assert result.closed_form
    print(f"  {len(result.families)} families in {t_solve * 1e3:.1f} ms")

    print(f"cross-validating against concrete enumeration at "
          f"{list(CROSSVAL_SIZES)}...")
    crossval = []
    t_concrete = concrete = None
    for u, p in CROSSVAL_SIZES:
        t_concrete, concrete = _timed_concrete(u, p, repeats=repeats)
        t_i, summary = _timed_instantiate(result, u, p, repeats=repeats)
        _assert_identical(summary, concrete, f"u={u} p={p}")
        crossval.append({
            "u": u, "p": p, "instances": len(concrete.instances),
            "concrete_s": round(t_concrete, 4),
            "instantiate_ms": round(t_i * 1e3, 3),
            "identical": True,
        })
        print(f"  u={u} p={p}: concrete {t_concrete * 1e3:.1f} ms  "
              f"instantiate {t_i * 1e3:.2f} ms  identical=True")

    u_ref, p_ref = CROSSVAL_SIZES[-1]
    t_ref_inst, _ = _timed_instantiate(result, u_ref, p_ref, repeats=repeats)
    speedup = t_concrete / t_ref_inst
    print(f"reference u={u_ref} p={p_ref}: {speedup:.0f}x symbolic vs "
          f"concrete")

    print(f"measuring the instantiation ladder {list(LADDER)}...")
    ladder = {}
    for u in LADDER:
        t_i, summary = _timed_instantiate(result, u, u, repeats=repeats)
        ladder[f"u{u}p{u}"] = {
            "instantiate_ms": round(t_i * 1e3, 3),
            "instances": summary["instances"],
            "distinct_vectors": len(summary["distinct_vectors"]),
        }
        print(f"  u=p={u}: {t_i * 1e3:.2f} ms, "
              f"{summary['instances']} instances")

    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data.update({
        "instance": {
            "algorithm": "bit-level matmul (add-shift, expansion II)",
            "note": "parametric solve with u, p free; closed-form "
                    "instantiation is O(1) in both",
        },
        "environment": obs.environment_info(),
        "solve": {
            "seconds": round(t_solve, 4),
            "families": len(result.families),
            "closed_form": True,
        },
        "instantiate": ladder,
        "concrete_reference": {
            "u": u_ref, "p": p_ref, "method": "enumerate",
            "seconds": round(t_concrete, 4),
            "instances": len(concrete.instances),
        },
        "speedup_symbolic_vs_concrete": round(speedup, 2),
        "crossval": crossval,
    })
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")
    assert speedup >= 100.0, (
        f"symbolic speedup {speedup:.1f}x below the 100x record floor"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="measure the solve, ladder and concrete "
                        "reference; update BENCH_symbolic.json")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats for --record")
    args = parser.parse_args(argv)
    return _record(args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
