"""Benchmark: the design-space search of [5, 6, 10].

Times the joint (S, Π) search that produced designs like the paper's
Fig. 4, and reports the best designs found for the bit-level matmul
structure -- including ones the paper does not list (same optimal time,
fewer processors at small sizes).

Besides the pytest-benchmark kernels:

* :func:`smoke` measures the ``search_memo_hits`` and
  ``design_search_solver`` rows of the perf gate
  (``scripts/bench_gate.py``).  It runs a small instance, then the same
  ``(D, P, config)`` at another u, and raises unless the second search
  walked the first one's plan (``mapping.plan_hits == 1``,
  ``mapping.plan_misses == 1``) and found the designs of a cold run; then
  it runs the small instance on both strategies and raises unless they
  return the same designs.
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
from _timing import best_of

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


# -- the gate rows and the record --------------------------------------------

def _candidate_rows(cands):
    return [
        {"time": c.time, "processors": c.processors,
         "rows": [list(r) for r in c.mapping.rows]}
        for c in cands
    ]


def _cold_counters(fn):
    """``fn()`` run from a cleared search-plan memo, and the counters it
    reported."""
    clear_search_plans()
    with obs.collecting() as reg:
        result = fn()
    return result, dict(reg.counters)


def _timed_search(alg, binding, prims, config, repeats=3):
    """Best-of-N wall clock plus the (identical) result and counters; each
    repeat starts from a cleared search-plan memo, so it builds its plan.
    Timing runs without a metrics registry; one more cold run, collected,
    supplies the counters."""
    def search():
        return run_search(alg, binding, prims, config)

    best, _ = best_of(search, repeats, setup=clear_search_plans)
    cands, counters = _cold_counters(search)
    return best, cands, counters


def _flow_search(u, p, e, strategy="solver"):
    """One ``design_flow`` job's search: fig4 primitives, block [p]."""
    config = SearchConfig(target_space_dim=2, block_values=[p],
                          schedule_bound=2, max_candidates=5,
                          strategy=strategy)
    return run_search(matmul_bit_level(u, p, e), {"u": u, "p": p},
                      designs.fig4_primitives(p), config)


def smoke() -> dict:
    """The perf gate's search rows, both exact counts.

    ``search_memo_hits`` counts ``mapping.cache_hits`` over a u=p=2 search
    and a u=3, p=2 search that walks the plan the first one built;
    ``design_search_solver`` is the catalog's enumerated candidates over
    the solver's on the u=p=2 search.  Raises when a search finds no
    design, when the second search did not take the first one's plan
    (``plan_hits == plan_misses == 1``) or found other designs than a cold
    run, or when the two strategies disagree.
    """
    (cands, warm), counters = _cold_counters(
        lambda: (_flow_search(2, 2, "II"), _flow_search(3, 2, "II"))
    )
    cold, _ = _cold_counters(lambda: _flow_search(3, 2, "II"))
    assert cands and warm, "smoke search found no designs"
    assert counters.get("mapping.designs_found", 0) > 0, (
        "mapping.designs_found is 0"
    )
    assert counters.get("mapping.plan_hits") == 1, (
        "the second search did not reuse the plan"
    )
    assert counters.get("mapping.plan_misses") == 1, (
        "the second search built a plan of its own"
    )
    assert _candidate_rows(warm) == _candidate_rows(cold), (
        "warm plan changed designs"
    )
    enumerated = {}
    found = {}
    for strategy in ("catalog", "solver"):
        found[strategy], strategy_counters = _cold_counters(
            lambda: _flow_search(2, 2, "II", strategy)
        )
        enumerated[strategy] = strategy_counters.get(
            "mapping.candidates_enumerated", 0
        )
    assert found["solver"] and (
        _candidate_rows(found["solver"]) == _candidate_rows(found["catalog"])
    ), "solver search diverged from catalog"
    return {
        "search_memo_hits": {
            "instance": "matmul u=p=2, then u=3 p=2, exp II",
            "count": counters.get("mapping.cache_hits", 0),
        },
        "design_search_solver": {
            "instance": "matmul u=p=2 exp II",
            "count": enumerated["catalog"], "per": enumerated["solver"],
        },
    }


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
    t_seq, cands_seq, c_seq = _timed_search(alg, binding, prims,
                                            config("catalog"), repeats)
    print(f"catalog: {t_seq:.3f}s")

    t_sol, cands_sol, c_sol = _timed_search(
        alg, binding, prims, config("solver"), repeats
    )
    solver_identical = _candidate_rows(cands_sol) == _candidate_rows(cands_seq)
    n_catalog = c_seq.get("mapping.candidates_enumerated", 0)
    n_solver = c_sol.get("mapping.candidates_enumerated", 0)
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
                "cache_hits": c_seq.get("mapping.cache_hits"),
                "cache_misses": c_seq.get("mapping.cache_misses"),
                "candidates_enumerated": c_seq.get(
                    "mapping.candidates_enumerated"),
                "conflict_checks": c_seq.get(
                    "mapping.conflict_checks"),
            },
        },
        "solver": {
            "seconds": round(t_sol, 3),
            "cache_hits": c_sol.get("mapping.cache_hits"),
            "cache_misses": c_sol.get("mapping.cache_misses"),
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
    parser.add_argument("--record", action="store_true", required=True,
                        help="measure the u=3,p=3 instance and update "
                             "BENCH_design_search.json")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for --record (best-of)")
    args = parser.parse_args(argv)
    return _record(args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
