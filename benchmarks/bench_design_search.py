"""Benchmark: the design-space search of [5, 6, 10].

Times the joint (S, Π) search that produced designs like the paper's
Fig. 4, and reports the best designs found for the bit-level matmul
structure -- including ones the paper does not list (same optimal time,
fewer processors at small sizes).

Besides the pytest-benchmark kernels, this module doubles as a script:

* ``python benchmarks/bench_design_search.py --smoke [--metrics-out F]``
  runs a small instance, then the same ``(D, P, config)`` at another u,
  and asserts the engine's memoization is live (``mapping.cache_hits >
  0``), the second search walked the first one's plan
  (``mapping.plan_hits == 1``) and found the designs of a cold run -- the
  CI guard.
* ``python benchmarks/bench_design_search.py --record`` runs the blocked
  u=3, p=3 instance two ways -- the catalog strategy, then the
  branch-and-prune solver strategy, each timed repeat from a cleared
  search-plan memo -- verifies both return identical designs, then times
  one ``design_flow`` pass of 36 searches from a cleared memo against the
  same searches each from a cleared memo, and rewrites
  ``BENCH_design_search.json`` at the repo root with the catalog timing,
  the solver's candidates-enumerated ratio and wall-clock speedup over
  the catalog scan timed in the same run, and the ``plan`` row.
"""

import argparse
import itertools
import json
import pathlib
import random
import time

import pytest

from repro import obs
from repro.expansion.theorem31 import matmul_bit_level
from repro.experiments.tables import format_table
from repro.ir.builders import matmul_word_structure
from repro.mapping import designs
from repro.mapping.engine import SearchConfig, run_search
from repro.mapping.solver import clear_search_plans

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_design_search.json"


@pytest.fixture(scope="module", autouse=True)
def report(report_writer):
    yield
    u, p = 2, 2
    alg = matmul_bit_level(u, p, "II")
    config = SearchConfig(target_space_dim=2, block_values=[p],
                          schedule_bound=2, max_candidates=5)
    with obs.collecting() as reg:
        cands = run_search(alg, {"u": u, "p": p},
                           designs.fig4_primitives(p), config)
    rows = [
        (i + 1, c.time, c.processors,
         "; ".join(str(list(r)) for r in c.mapping.rows))
        for i, c in enumerate(cands)
    ]
    rows.append(
        ("Fig4", designs.t_fig4(u, p), designs.fig4_processor_count(u, p),
         "; ".join(str(list(r)) for r in designs.fig4_mapping(p).rows))
    )
    text = format_table(
        ["rank", "time", "PEs", "T = [S; Π]"],
        rows,
        title=f"Design-space search, bit-level matmul (u={u}, p={p})",
    )
    report_writer(
        "design-search", text,
        data={"u": u, "p": p, "rows": rows, "metrics": obs.metrics_dict(reg)},
    )


def test_bench_search_word_level(benchmark):
    alg = matmul_word_structure()
    config = SearchConfig(target_space_dim=2, block_values=(),
                          schedule_bound=1, max_candidates=3)
    cands = benchmark(run_search, alg, {"u": 3}, None, config)
    assert cands and cands[0].time == 7


def test_bench_search_bit_level(benchmark):
    alg = matmul_bit_level(2, 2, "II")
    config = SearchConfig(target_space_dim=2, block_values=[2],
                          schedule_bound=2, max_candidates=2)
    cands = benchmark(
        run_search, alg, {"u": 2, "p": 2}, designs.fig4_primitives(2), config
    )
    assert cands
    assert cands[0].time <= designs.t_fig4(2, 2)


# -- script modes -----------------------------------------------------------

def _candidate_rows(cands):
    return [
        {"time": c.time, "processors": c.processors,
         "rows": [list(r) for r in c.mapping.rows]}
        for c in cands
    ]


def _timed_search(alg, binding, prims, config, repeats=3):
    """Best-of-N wall clock plus the (identical) result and metrics; each
    repeat starts from a cleared search-plan memo, so it builds its plan."""
    best = None
    cands = None
    metrics = None
    for _ in range(repeats):
        clear_search_plans()
        with obs.collecting() as reg:
            t0 = time.perf_counter()
            cands = run_search(alg, binding, prims, config)
            elapsed = time.perf_counter() - t0
        metrics = obs.metrics_dict(reg)
        best = elapsed if best is None else min(best, elapsed)
    return best, cands, metrics


def _flow_search(u, p, e):
    """One ``design_flow`` job's search: fig4 primitives, block [p]."""
    config = SearchConfig(target_space_dim=2, block_values=[p],
                          schedule_bound=2, max_candidates=5)
    return run_search(matmul_bit_level(u, p, e), {"u": u, "p": p},
                      designs.fig4_primitives(p), config)


def _smoke(metrics_out: str | None) -> int:
    # u=2 builds the (D, P, config) plan; u=3 (same p) walks it.
    clear_search_plans()
    with obs.collecting() as reg:
        cands = _flow_search(2, 2, "II")
        warm = _flow_search(3, 2, "II")
    clear_search_plans()
    cold = _flow_search(3, 2, "II")
    metrics = obs.metrics_dict(reg)
    if metrics_out:
        pathlib.Path(metrics_out).write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        )
    counters = metrics["counters"]
    hits = counters.get("mapping.cache_hits", 0)
    found = counters.get("mapping.designs_found", 0)
    plan_hits = counters.get("mapping.plan_hits", 0)
    print(f"smoke: {len(cands)} + {len(warm)} designs, cache_hits={hits}, "
          f"designs_found={found}, plan_hits={plan_hits}")
    assert cands and warm, "smoke search found no designs"
    assert hits > 0, "memoization produced no cache hits"
    assert plan_hits == 1, "the second search did not reuse the plan"
    assert _candidate_rows(warm) == _candidate_rows(cold), (
        "warm plan changed designs"
    )
    return 0


def _record_plan() -> dict:
    """One ``design_flow`` pass of 36 searches from a cleared plan memo,
    against the same searches each from a cleared memo."""
    instances = list(itertools.product((2, 3, 4), (2, 3, 4), ("I", "II")))
    jobs = instances * 2
    random.Random(0).shuffle(jobs)
    clear_search_plans()
    with obs.collecting() as reg:
        t0 = time.perf_counter()
        shared = [_candidate_rows(_flow_search(*job)) for job in jobs]
        seconds = time.perf_counter() - t0
    cold = {}
    t0 = time.perf_counter()
    for job in jobs:
        clear_search_plans()
        cold[job] = _candidate_rows(_flow_search(*job))
    cold_seconds = time.perf_counter() - t0
    identical = shared == [cold[job] for job in jobs]
    hits = reg.counters.get("mapping.plan_hits", 0)
    misses = reg.counters.get("mapping.plan_misses", 0)
    print(f"plan: {len(jobs)} searches {seconds:.3f}s with shared plans, "
          f"{cold_seconds:.3f}s each from a cleared memo "
          f"({cold_seconds / seconds:.1f}x), plan hits {hits} / misses "
          f"{misses}, identical={identical}")
    assert identical, "searches on shared plans diverged from cold ones"
    return {
        "searches": len(jobs),
        "seconds": round(seconds, 3),
        "cold_seconds": round(cold_seconds, 3),
        "speedup_vs_cold": round(cold_seconds / seconds, 2),
        "plan_hits": hits,
        "plan_misses": misses,
        "results_identical_to_cold": identical,
    }


def _record(repeats: int) -> int:
    u, p = 3, 3
    alg = matmul_bit_level(u, p, "II")
    binding = {"u": u, "p": p}
    prims = designs.fig4_primitives(p)

    def config(strategy):
        return SearchConfig(target_space_dim=2, block_values=[p],
                            schedule_bound=2, max_candidates=5,
                            strategy=strategy)

    print(f"recording u={u} p={p} blocked-catalog instance "
          f"(best of {repeats})...")
    t_seq, cands_seq, m_seq = _timed_search(alg, binding, prims,
                                            config("catalog"), repeats)
    print(f"catalog: {t_seq:.3f}s")

    t_sol, cands_sol, m_sol = _timed_search(
        alg, binding, prims, config("solver"), repeats
    )
    solver_identical = _candidate_rows(cands_sol) == _candidate_rows(cands_seq)
    n_catalog = m_seq["counters"].get("mapping.candidates_enumerated", 0)
    n_solver = m_sol["counters"].get("mapping.candidates_enumerated", 0)
    ratio = n_catalog / max(n_solver, 1)
    print(f"solver: {t_sol:.3f}s ({t_seq / t_sol:.1f}x faster)  candidates "
          f"{n_solver} vs catalog {n_catalog} ({ratio:.1f}x fewer)  "
          f"identical={solver_identical}")
    assert solver_identical, "solver search diverged from catalog"
    assert ratio >= 10, f"solver candidate cut {ratio:.1f}x below 10x"

    data = {
        "instance": {
            "algorithm": "matmul_bit_level", "u": u, "p": p,
            "expansion": "II", "primitives": "fig4",
            "config": {"target_space_dim": 2, "block_values": [p],
                       "schedule_bound": 2, "max_candidates": 5},
        },
        "environment": obs.environment_info(),
        "engine": {
            "catalog": {
                "seconds": round(t_seq, 3),
                "cache_hits": m_seq["counters"].get("mapping.cache_hits"),
                "cache_misses": m_seq["counters"].get("mapping.cache_misses"),
                "candidates_enumerated": m_seq["counters"].get(
                    "mapping.candidates_enumerated"),
                "conflict_checks": m_seq["counters"].get(
                    "mapping.conflict_checks"),
            },
        },
        "solver": {
            "seconds": round(t_sol, 3),
            "cache_hits": m_sol["counters"].get("mapping.cache_hits"),
            "cache_misses": m_sol["counters"].get("mapping.cache_misses"),
            "candidates_enumerated": n_solver,
            "catalog_candidates_enumerated": n_catalog,
            "candidates_ratio": round(ratio, 2),
            "speedup_vs_catalog": round(t_seq / t_sol, 2),
            "results_identical_to_catalog": solver_identical,
        },
        "plan": _record_plan(),
        "top_candidates": _candidate_rows(cands_seq),
    }
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--smoke", action="store_true",
                      help="small instance; assert memoization is live")
    mode.add_argument("--record", action="store_true",
                      help="measure the u=3,p=3 instance and update "
                           "BENCH_design_search.json")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the smoke run's metrics dict as JSON")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for --record (best-of)")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke(args.metrics_out)
    return _record(args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
