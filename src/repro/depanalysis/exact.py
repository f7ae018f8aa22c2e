"""The exact (Diophantine + verification) dependence analyzer.

This is the faithful implementation of the "general dependence analysis
methods" the paper describes: for every write/read access pair on the same
array, set up the linear Diophantine system equating subscripts, find all
integer solutions (particular solution + lattice basis via Smith normal
form), and *verify* which solutions lie inside the iteration space.  The
verification step enumerates the solution lattice inside the index-set box,
with cost exponential in the number of free lattice directions -- which is
why the paper's compositional Theorem 3.1 is worth having.

Guards on statements restrict which solutions are real dependences: the
write's guard must hold at the source iteration, the read's at the sink.
"""

from __future__ import annotations

import time

from repro import obs
from repro.depanalysis.diophantine import bounded_lattice_points
from repro.depanalysis.gcdtest import gcd_test
from repro.depanalysis.banerjee import banerjee_test
from repro.depanalysis.pairs import AnalysisResult, DependenceInstance
from repro.ir.program import LoopNest
from repro.structures.params import ParamBinding
from repro.util.linalg import solve_integer_system

__all__ = ["analyze_exact"]


def _lex_positive(vec: tuple[int, ...]) -> bool:
    for x in vec:
        if x > 0:
            return True
        if x < 0:
            return False
    return False


def analyze_exact(
    program: LoopNest,
    binding: ParamBinding,
    use_screens: bool = True,
) -> AnalysisResult:
    """Run the exact general dependence analysis on a program instance.

    Parameters
    ----------
    program:
        The loop nest to analyze.
    binding:
        Values for all symbolic parameters (``{"u": 4, "p": 3}``).
    use_screens:
        When True (default), apply the GCD and Banerjee screening tests
        before solving each Diophantine system; turning them off measures
        the cost of bare exact analysis (used by the ablation benchmark).

    Returns
    -------
    AnalysisResult
        All flow-dependence instances with both endpoints inside the index
        set, plus analyzer statistics in ``result.stats``.
    """
    order = program.index_names
    n = program.dim
    bounds = program.index_set.bounds(binding)
    box = bounds + bounds  # unknowns: (source j̄', sink j̄)

    stats = {
        "pairs_tested": 0,
        "gcd_pruned": 0,
        "banerjee_pruned": 0,
        "systems_solved": 0,
        "no_integer_solution": 0,
        "candidates_verified": 0,
        "instances": 0,
    }
    instances: set[DependenceInstance] = set()
    reg = obs.get_registry()

    def test_pair(w_stmt, write, r_stmt, read) -> None:
        if use_screens:
            if not gcd_test(write, read, order, binding):
                stats["gcd_pruned"] += 1
                return
            if not banerjee_test(
                write, read, order, program.index_set, binding
            ):
                stats["banerjee_pruned"] += 1
                return
        # Subscript system over z = (j̄', j̄).
        a_rows: list[list[int]] = []
        rhs: list[int] = []
        for w_e, r_e in zip(write.subscripts, read.subscripts):
            a_rows.append(
                w_e.coeff_vector(order)
                + [-c for c in r_e.coeff_vector(order)]
            )
            rhs.append(
                r_e.offset.evaluate(binding) - w_e.offset.evaluate(binding)
            )
        stats["systems_solved"] += 1
        sol = solve_integer_system(a_rows, rhs)
        if sol is None:
            stats["no_integer_solution"] += 1
            return
        particular, basis = sol
        for z in bounded_lattice_points(particular, basis, box):
            stats["candidates_verified"] += 1
            src = tuple(z[:n])
            snk = tuple(z[n:])
            if src == snk:
                continue
            if not w_stmt.active_at(src, binding):
                continue
            if not r_stmt.active_at(snk, binding):
                continue
            vec = tuple(s - t for s, t in zip(snk, src))
            kind = "flow" if _lex_positive(vec) else "reversed"
            instances.add(
                DependenceInstance(snk, vec, write.array, kind)
            )

    with obs.span("depanalysis.analyze_exact", statements=len(program.statements)):
        for w_stmt in program.statements:
            write = w_stmt.write
            for r_stmt in program.statements:
                for read in r_stmt.reads:
                    if read.array != write.array:
                        continue
                    stats["pairs_tested"] += 1
                    if reg is None:
                        test_pair(w_stmt, write, r_stmt, read)
                    else:
                        t0 = time.perf_counter()
                        test_pair(w_stmt, write, r_stmt, read)
                        reg.observe(
                            "depanalysis.pair_seconds",
                            time.perf_counter() - t0,
                        )
    stats["instances"] = len(instances)
    if reg is not None:
        reg.count_many(stats, prefix="depanalysis.")
    return AnalysisResult.from_instances(instances, stats)
