"""Benchmark: scalar vs symbolic exact-analysis routes + artifact cache.

Times :func:`repro.depanalysis.analyze` on both exact-analysis routes on
the same expanded bit-level matmul programs -- the scalar Diophantine
analyzer (the reference) and the symbolic closed form instantiated at the
binding (the default) -- and checks that they return the same ordered
instance list and agree on ``pairs_tested``/``instances``, then measures
the persistent artifact cache cold (miss + write) and warm (hit) on the
default route.

Besides the pytest-benchmark kernels:

* :func:`smoke` measures the ``analysis_symbolic`` and
  ``analysis_cache_warm`` rows of the perf gate (``scripts/bench_gate.py``)
  on one small instance, and raises when the routes, the hash-join or the
  cache disagree.
* ``python benchmarks/bench_analysis.py --record`` runs the E7-shaped
  sweep on both routes (expecting >= 5x symbolic and >= 20x warm-cache
  vs scalar), re-times E7, runs the Theorem 3.1 cross-validation at scale
  with the scalar hash-join (``method="enumerate"``), and rewrites
  ``BENCH_analysis.json`` at the repo root.
"""

import argparse
import json
import pathlib
import tempfile
import time

import pytest
from _timing import best_of

from repro import obs
from repro.depanalysis import AnalysisConfig, analyze
from repro.depanalysis.engine import SHARED_STATS
from repro.experiments.tables import format_table
from repro.ir.expand import expand_bit_level

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_analysis.json"

_MATMUL_H = ([0, 1, 0], [1, 0, 0], [0, 0, 1])

#: The E7-shaped sweep: |J| = u^3 p^2 grows ~50x across it.
SWEEP = ((2, 2), (3, 2), (3, 3), (4, 3))


def _program(u, p, expansion="II"):
    h1, h2, h3 = _MATMUL_H
    return expand_bit_level(h1, h2, h3, [1, 1, 1], [u, u, u], p, expansion)


def _timed(program, p, method="exact", backend=None, cache=False,
           cache_dir=None, repeats=1):
    """Best-of-N wall clock plus the result."""
    config = AnalysisConfig(backend=backend, cache=cache, cache_dir=cache_dir)
    return best_of(
        lambda: analyze(program, {"p": p}, method=method, config=config),
        repeats,
    )


def _assert_same_answer(reference, got, label):
    assert [i.key() for i in reference.instances] == [
        i.key() for i in got.instances
    ], f"{label}: instance lists diverged"
    for key in SHARED_STATS:
        assert reference.stats[key] == got.stats[key], (
            f"{label}: {key} diverged"
        )


# -- pytest-benchmark kernels -----------------------------------------------

U, P = 3, 2
PROGRAM = _program(U, P)


@pytest.fixture(scope="module", autouse=True)
def report(report_writer):
    yield
    rows = []
    data_rows = []
    for u, p in ((2, 2), (3, 2), (3, 3)):
        program = _program(u, p)
        t_s, r_s = _timed(program, p, backend="scalar")
        t_y, r_y = _timed(program, p, backend="symbolic")
        _assert_same_answer(r_s, r_y, f"u={u} p={p}")
        rows.append(
            (u, p, u**3 * p**2, r_s.stats["instances"],
             f"{t_s * 1e3:.1f}", f"{t_y * 1e3:.1f}", f"{t_s / t_y:.1f}x")
        )
        data_rows.append({
            "u": u, "p": p, "instances": r_s.stats["instances"],
            "scalar_s": round(t_s, 4), "symbolic_s": round(t_y, 4),
            "speedup": round(t_s / t_y, 2), "identical": True,
        })
    text = format_table(
        ["u", "p", "|J|", "instances", "scalar ms", "symbolic ms", "speedup"],
        rows,
        title="Exact analysis: scalar vs symbolic route",
    )
    report_writer(
        "analysis-engine", text,
        data={"backend": "symbolic-vs-scalar", "rows": data_rows},
    )


def test_bench_exact_scalar(benchmark):
    _, result = benchmark(
        _timed, PROGRAM, P, method="exact", backend="scalar"
    )
    assert result.stats["instances"] > 0


def test_bench_exact_symbolic(benchmark):
    _, result = benchmark(
        _timed, PROGRAM, P, method="exact", backend="symbolic"
    )
    assert result.stats["instances"] > 0


def test_bench_enumerate(benchmark):
    _, result = benchmark(_timed, PROGRAM, P, method="enumerate")
    assert result.stats["instances"] > 0


def test_bench_warm_cache(benchmark, tmp_path):
    cache_dir = str(tmp_path / "cache")
    _timed(PROGRAM, P, cache=True, cache_dir=cache_dir)
    _, result = benchmark(
        _timed, PROGRAM, P, cache=True, cache_dir=cache_dir
    )
    assert result.stats["instances"] > 0


# -- the gate rows and the record --------------------------------------------

def smoke() -> dict:
    """The perf gate's analysis rows at u=3, p=2, each side best of 3.

    ``analysis_symbolic`` times the symbolic route (it keeps no memo, so
    every run solves from scratch) against the scalar analyzer;
    ``analysis_cache_warm`` times a warm artifact-cache read against the
    cold miss that wrote it.  Raises when the two routes, the hash-join
    or the cache disagree.
    """
    u, p = 3, 2
    program = _program(u, p)
    t_s, r_s = _timed(program, p, backend="scalar", repeats=3)
    t_y, r_y = _timed(program, p, backend="symbolic", repeats=3)
    _assert_same_answer(r_s, r_y, f"u={u} p={p} exact")
    _, r_e = _timed(program, p, method="enumerate")
    assert [i.key() for i in r_e.instances] == [
        i.key() for i in r_y.instances
    ], f"u={u} p={p}: hash-join diverged from the exact routes"
    with tempfile.TemporaryDirectory() as d:
        t_cold, r_cold = _timed(program, p, backend="symbolic", cache=True,
                                cache_dir=d)
        t_warm, r_warm = _timed(program, p, backend="symbolic", cache=True,
                                cache_dir=d, repeats=3)
    assert r_cold.stats == r_y.stats and r_warm.stats == r_y.stats, (
        f"u={u} p={p}: cached stats diverged"
    )
    _assert_same_answer(r_s, r_warm, f"u={u} p={p} cache warm")
    instance = f"matmul u={u} p={p} exp II"
    return {
        "analysis_symbolic": {"instance": instance, "reference_s": t_s,
                              "fast_s": t_y},
        "analysis_cache_warm": {"instance": instance, "reference_s": t_cold,
                                "fast_s": t_warm},
    }


def _record(repeats: int, scale: int) -> int:
    print(f"recording E7 sweep {list(SWEEP)} on both routes "
          f"(best of {repeats})...")
    sweep_rows = []
    total_scalar = 0.0
    total_symbolic = 0.0
    total_cold = 0.0
    total_warm = 0.0
    with tempfile.TemporaryDirectory() as cache_dir:
        for u, p in SWEEP:
            program = _program(u, p)
            t_s, r_s = _timed(program, p, backend="scalar", repeats=repeats)
            t_y, r_y = _timed(program, p, backend="symbolic",
                              repeats=repeats)
            _assert_same_answer(r_s, r_y, f"u={u} p={p}")
            t_cold, r_cold = _timed(program, p, backend="symbolic",
                                    cache=True, cache_dir=cache_dir)
            t_warm, r_warm = _timed(program, p, backend="symbolic",
                                    cache=True, cache_dir=cache_dir,
                                    repeats=repeats)
            _assert_same_answer(r_s, r_cold, f"u={u} p={p} cache cold")
            _assert_same_answer(r_s, r_warm, f"u={u} p={p} cache warm")
            total_scalar += t_s
            total_symbolic += t_y
            total_cold += t_cold
            total_warm += t_warm
            sweep_rows.append({
                "u": u, "p": p, "points": u**3 * p**2,
                "instances": r_s.stats["instances"],
                "scalar_s": round(t_s, 4),
                "symbolic_s": round(t_y, 4),
                "cache_cold_s": round(t_cold, 4),
                "cache_warm_s": round(t_warm, 4),
                "speedup_symbolic": round(t_s / t_y, 2),
            })
            print(f"  u={u} p={p}: scalar {t_s * 1e3:.1f} ms  "
                  f"symbolic {t_y * 1e3:.1f} ms ({t_s / t_y:.1f}x)  "
                  f"cold {t_cold * 1e3:.1f} ms  warm {t_warm * 1e3:.1f} ms")
    speedup_symbolic = total_scalar / total_symbolic
    speedup_warm = total_scalar / total_warm
    print(f"sweep totals: scalar {total_scalar:.3f}s  "
          f"symbolic {total_symbolic:.3f}s ({speedup_symbolic:.1f}x)  "
          f"warm cache {total_warm:.3f}s ({speedup_warm:.1f}x)")

    print("re-timing E7 (scalar analyzer vs Theorem 3.1)...")
    from repro.experiments import e7_analysis_cost

    e7_data = e7_analysis_cost.run()
    assert e7_data["ok"], "E7 disagreement"
    e7 = {
        "general_ms": {
            f"u{u}p{p}": general_ms
            for u, p, _pts, _cand, general_ms, _comp, _ratio, _ok
            in e7_data["rows"]
        },
        "ok": True,
    }

    print(f"running the u=p={scale} Theorem 3.1 cross-validation "
          f"(scalar hash-join)...")
    from repro.expansion.verify import verify_theorem31

    t0 = time.perf_counter()
    rep = verify_theorem31(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1],
        [scale, scale, scale], scale, method="enumerate",
    )
    t_scale = time.perf_counter() - t0
    assert rep.matches, f"u=p={scale} cross-validation MISMATCH"
    print(f"  u=p={scale}: {rep.analysis_stats['points_visited']} points, "
          f"{rep.analysis_stats['instances']} instances, "
          f"matches=True in {t_scale:.1f}s")

    data = {
        "instance": {
            "algorithm": "bit-level matmul (add-shift, expansion II)",
            "sweep": [[u, p] for u, p in SWEEP],
            "method": "exact",
        },
        "environment": obs.environment_info(),
        "engine": {
            "scalar": {"seconds": round(total_scalar, 3)},
            "symbolic": {"seconds": round(total_symbolic, 3)},
            "cache_cold": {"seconds": round(total_cold, 3)},
            "cache_warm": {"seconds": round(total_warm, 3)},
            "results_identical_across_backends": True,
            "speedup_symbolic_vs_scalar": round(speedup_symbolic, 2),
            "speedup_warm_cache_vs_scalar": round(speedup_warm, 2),
            "speedup_warm_vs_cold": round(total_cold / total_warm, 2),
        },
        "e7": e7,
        "scale_run": {
            "u": scale, "p": scale, "method": "enumerate",
            "points": rep.analysis_stats["points_visited"],
            "instances": rep.analysis_stats["instances"],
            "seconds": round(t_scale, 3),
            "theorem31_matches": True,
        },
        "sweep": sweep_rows,
    }
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")
    assert speedup_symbolic >= 5.0, (
        f"symbolic speedup {speedup_symbolic:.2f}x below the 5x record floor"
    )
    assert speedup_warm >= 20.0, (
        f"warm-cache speedup {speedup_warm:.2f}x below the 20x record floor"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="measure the E7 sweep, cache, E7 and the scale "
                        "run; rewrite BENCH_analysis.json")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats for --record")
    parser.add_argument("--scale", type=int, default=16,
                        help="u = p for the --record cross-validation scale "
                        "run (default 16; lower for quick refreshes)")
    args = parser.parse_args(argv)
    return _record(args.repeats, args.scale)


if __name__ == "__main__":
    raise SystemExit(main())
