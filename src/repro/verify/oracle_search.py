"""Oracle: solver-backed search vs. the exhaustive catalog search.

For one random search instance, run :func:`repro.mapping.engine.run_search`
twice -- once with ``strategy="catalog"`` (the enumerate-and-filter
baseline, which tries every catalog candidate through
:func:`~repro.mapping.feasibility.check_feasibility`) and once with
``strategy="solver"`` (the branch-and-prune constraint generator of
:mod:`repro.mapping.solver`) -- and demand *identical* results:

* the canonicalized feasible ``T`` sets must be equal (an unsound solver
  cut shows up as a design missing from the solver side; a dropped
  feasibility condition as an extra design the catalog never admits);
* the ranked lists must agree element-wise in ``(rows, time,
  processors, wire_length)`` -- the solver contract is not merely
  set-equality but identical enumeration order, so capped searches
  return the same prefix;
* the solver search must not raise: it raises when a design it would
  return fails the ``check_feasibility`` that certifies it, and the
  error is reported as the disagreement.

Word-model cases run exhaustively (true set equality over the whole
design space); bit-level cases are capped and compare the identical
ranked prefix.  The catalog run starts from its own empty memo and
builds no search plan; the solver run may walk a plan an earlier case of
the same ``(D, P, config)`` built, which holds no binding-dependent
result, so no result can leak between the two strategies.
"""

from __future__ import annotations

import random

from repro.verify.generator import SearchCase, SizeEnvelope, gen_search_case

__all__ = ["NAME", "generate", "check"]

NAME = "search"


def generate(rng: random.Random, envelope: SizeEnvelope) -> SearchCase:
    return gen_search_case(rng, envelope)


def _signature(candidates) -> list[tuple]:
    return [
        (c.mapping.rows, c.time, c.processors, c.wire_length)
        for c in candidates
    ]


def check(case: SearchCase) -> str | None:
    """Return a disagreement description, or ``None`` when the two
    strategies produce identical designs."""
    from repro.mapping.engine import run_search

    algorithm, binding, primitives = case.build()
    catalog = run_search(
        algorithm, binding, primitives, case.config("catalog")
    )
    try:
        solver = run_search(
            algorithm, binding, primitives, case.config("solver")
        )
    except Exception as exc:
        return (
            f"[{case.kind}/{case.primitives}] solver raised "
            f"{type(exc).__name__}: {exc}"
        )
    catalog_sig = _signature(catalog)
    solver_sig = _signature(solver)
    if catalog_sig == solver_sig:
        return None

    # Diagnose: set-level disagreement (soundness/completeness bug) vs.
    # order-level disagreement (broken enumeration-order contract).
    catalog_ts = {sig[0] for sig in catalog_sig}
    solver_ts = {sig[0] for sig in solver_sig}
    problems: list[str] = []
    missing = sorted(catalog_ts - solver_ts)
    extra = sorted(solver_ts - catalog_ts)
    if missing:
        problems.append(
            f"solver misses {len(missing)} feasible design(s), e.g. "
            f"T={[list(r) for r in missing[0]]} (unsound cut)"
        )
    if extra:
        problems.append(
            f"solver admits {len(extra)} design(s) the catalog rejects, "
            f"e.g. T={[list(r) for r in extra[0]]} (dropped condition)"
        )
    if not problems:
        problems.append(
            f"same feasible set but different ranking/metrics: "
            f"catalog={catalog_sig[:3]} solver={solver_sig[:3]}"
        )
    return f"[{case.kind}/{case.primitives}] " + "; ".join(problems)
