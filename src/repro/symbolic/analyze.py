"""Parametric dependence analysis: solve once, instantiate anywhere.

:func:`analyze_symbolic` runs the same per-pair Diophantine pipeline as
:func:`repro.depanalysis.exact.analyze_exact`, but with the program's
``u``/``p`` parameters kept free: each write/read pair yields a
closed-form family (:mod:`repro.symbolic.families`) instead of an
enumerated instance list.  The returned :class:`SymbolicResult` then

* ``instantiate(binding)`` materializes the exact analyzer's
  :class:`~repro.depanalysis.pairs.AnalysisResult` -- identical instance
  rows, identical ordering -- by evaluating every family (used by the
  cross-validation oracle);
* ``summary(binding)`` answers counting questions (instances, distinct
  vectors, per-kind totals) in O(1) when every family is uniform, which
  is the case for every :func:`~repro.ir.expand.expand_bit_level`
  program.

Results are cached in the content-addressed artifact store under the
``"symbolic"`` kind, keyed on the *symbolic* program (bounds and guard
values as expressions, not evaluated), plus an in-process memo so
repeated instantiation sweeps never re-solve.  :func:`solve_program` is
the same pair loop with neither: the concrete exact-analysis route runs
it once per program instance and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.depanalysis.pairs import AnalysisResult, DependenceInstance
from repro.ir.program import LoopNest
from repro.structures.conditions import TRUE
from repro.structures.params import LinExpr, ParamBinding
from repro.symbolic import families as families_mod
from repro.symbolic.families import (
    Conjunction,
    GeneralFamily,
    UniformFamily,
    condition_to_region,
    lex_kind,
    region_and,
    region_count,
)
from repro.symbolic.solve import solve_symbolic_system
from repro.util.linalg import hermite_normal_form

__all__ = [
    "SymbolicResult",
    "analyze_symbolic",
    "clear_memo",
    "solve_program",
]


@dataclass(frozen=True)
class SymbolicResult:
    """Closed-form dependence analysis of one (symbolic) program."""

    families: tuple
    index_names: tuple[str, ...]
    lowers: tuple[LinExpr, ...]
    uppers: tuple[LinExpr, ...]
    stats: dict = field(default_factory=dict)

    @property
    def closed_form(self) -> bool:
        """True when every family instantiates by O(1) counting."""
        return all(isinstance(f, UniformFamily) for f in self.families)

    # -- instantiation -----------------------------------------------------
    def instantiate(self, binding: ParamBinding) -> AnalysisResult:
        """The exact analyzer's result at ``binding``, bit for bit.

        Instance rows (sink, vector, variable, kind) and their sort order
        match :func:`repro.depanalysis.exact.analyze_exact` exactly; the
        ``stats`` carry symbolic-layer counters instead of the concrete
        solver's pruning counters.  A uniform family's sinks enter the
        result's row table as one array per conjunction, with no
        per-instance object; a general family's enumerated instances are
        converted into rows.
        """
        blocks = []
        general: list[DependenceInstance] = []
        for fam in self.families:
            if isinstance(fam, UniformFamily):
                vec = fam.vector_at(binding)
                if vec is not None:
                    blocks.append((fam.sinks(binding), vec, fam.variable,
                                   lex_kind(vec)))
            else:
                general.extend(fam.instances(binding))
        return AnalysisResult.from_instances(general, self.stats, blocks)

    def count(self, binding: ParamBinding) -> int:
        """Total dependence instances at ``binding`` (O(1) counting when
        :attr:`closed_form`)."""
        return self.summary(binding)["instances"]

    def summary(self, binding: ParamBinding) -> dict:
        """Counting view: totals per distance vector and per kind.

        Families sharing an evaluated ``(vector, variable, kind)`` key are
        counted as one region union (inclusion-exclusion), so overlapping
        per-pair regions are never double counted.
        """
        if not self.closed_form:
            counts = self.instantiate(binding).key_counts()
        else:
            merged: dict[tuple, list[Conjunction]] = {}
            for fam in self.families:
                vec = fam.vector_at(binding)
                if vec is None:
                    continue
                key = (vec, fam.variable, lex_kind(vec))
                merged.setdefault(key, []).extend(fam.region)
            counts = {}
            for key, terms in merged.items():
                n = region_count(tuple(terms), binding)
                if n:
                    counts[key] = n
        vectors = sorted({key[0] for key in counts})
        by_kind: dict[str, int] = {}
        for (vec, _var, kind), n in counts.items():
            by_kind[kind] = by_kind.get(kind, 0) + n
        return {
            "instances": sum(counts.values()),
            "distinct_vectors": vectors,
            "by_kind": dict(sorted(by_kind.items())),
            "families": len(self.families),
            "closed_form": self.closed_form,
        }


# ---------------------------------------------------------------------------
# The pair loop
# ---------------------------------------------------------------------------

def _identity_lattice(rows: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Do the sink-halves of the basis generate all of ``Z^n``?"""
    if len(rows) < n:
        return False
    h, _u = hermite_normal_form([list(r) for r in rows])
    nonzero = [row for row in h if any(row)]
    if len(nonzero) != n:
        return False
    return all(
        nonzero[i][j] == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


def _pair_family(w_stmt, write, r_stmt, read, order, lowers, uppers, stats):
    n = len(order)
    a_rows: list[list[int]] = []
    rhs: list[LinExpr] = []
    for w_e, r_e in zip(write.subscripts, read.subscripts):
        a_rows.append(
            w_e.coeff_vector(order) + [-c for c in r_e.coeff_vector(order)]
        )
        rhs.append(r_e.offset - w_e.offset)
    stats["systems_solved"] += 1
    sol = solve_symbolic_system(a_rows, rhs)
    if sol is None:
        stats["no_integer_solution"] += 1
        return None
    w_guard = w_stmt.guard if w_stmt.guard is not None else TRUE
    r_guard = r_stmt.guard if r_stmt.guard is not None else TRUE
    uniform = all(
        vec[:n] == vec[n:] for vec in sol.basis
    ) and _identity_lattice(tuple(vec[n:] for vec in sol.basis), n)
    if not uniform:
        stats["general_families"] += 1
        return GeneralFamily(
            particular=sol.particular,
            basis=sol.basis,
            variable=write.array,
            box=tuple(zip(lowers + lowers, uppers + uppers)),
            write_guard=w_guard,
            read_guard=r_guard,
            zeros=sol.zeros,
        )
    vector = tuple(
        snk - src for src, snk in zip(sol.particular[:n], sol.particular[n:])
    )
    if all(e.is_constant and e.const == 0 for e in vector):
        stats["self_dependences_dropped"] += 1
        return None  # source == sink identically: never a dependence
    # Sink in box, and source (= sink - vector) in box.
    axes = []
    for i in range(n):
        src_lo, src_hi = families_mod.shifted_bounds(
            lowers[i], uppers[i], vector[i]
        )
        axes.append(
            families_mod.AxisConstraint(
                intervals=((lowers[i], uppers[i]), (src_lo, src_hi))
            )
        )
    region = (Conjunction(tuple(axes)),)
    region = region_and(region, condition_to_region(w_guard, n, shift=vector))
    region = region_and(region, condition_to_region(r_guard, n, shift=None))
    if not region:
        stats["guard_infeasible"] += 1
        return None
    stats["uniform_families"] += 1
    return UniformFamily(
        vector=vector, variable=write.array, region=region, zeros=sol.zeros
    )


def solve_program(program: LoopNest) -> SymbolicResult:
    """Run the symbolic pair loop on ``program``, with nothing memoized.

    This is :func:`analyze_symbolic` without its memo and artifact
    store: every call solves from scratch and keeps no reference to the
    result.  The concrete analysis route
    (:func:`repro.depanalysis.engine.run_analysis`) calls it once
    per program instance, so distinct concrete programs never
    accumulate in the process.

    Raises
    ------
    SymbolicUnsupported
        As :func:`analyze_symbolic`.
    """
    order = program.index_names
    lowers = tuple(program.index_set.lowers)
    uppers = tuple(program.index_set.uppers)
    stats = {
        "pairs_tested": 0,
        "systems_solved": 0,
        "no_integer_solution": 0,
        "self_dependences_dropped": 0,
        "guard_infeasible": 0,
        "uniform_families": 0,
        "general_families": 0,
    }
    families: list = []
    with obs.span(
        "symbolic.analyze", statements=len(program.statements)
    ):
        for w_stmt in program.statements:
            write = w_stmt.write
            for r_stmt in program.statements:
                for read in r_stmt.reads:
                    if read.array != write.array:
                        continue
                    stats["pairs_tested"] += 1
                    fam = _pair_family(
                        w_stmt, write, r_stmt, read, order,
                        lowers, uppers, stats,
                    )
                    if fam is not None:
                        families.append(fam)
    obs.count("symbolic.analyses")
    return SymbolicResult(
        families=tuple(families),
        index_names=tuple(order),
        lowers=lowers,
        uppers=uppers,
        stats=stats,
    )


def analyze_symbolic(
    program: LoopNest,
    cache=None,
    cache_dir: str | None = None,
) -> SymbolicResult:
    """Analyze ``program`` with its parameters kept free.

    Parameters
    ----------
    program:
        A loop nest whose bounds/guards may reference free parameters
        (``u``, ``p``); fully concrete programs work too (the result is
        then a constant family set).
    cache, cache_dir:
        Artifact-store policy, with the same semantics as
        :class:`repro.depanalysis.engine.AnalysisConfig`: ``None`` means
        "enabled iff ``$REPRO_CACHE_DIR`` is set".

    Raises
    ------
    SymbolicUnsupported
        When a pair's system or guards have no linear closed form (e.g.
        parameter-dependent congruences); callers can fall back to the
        concrete analyzer.
    """
    from repro.cache import Uncacheable, resolve_cache
    from repro.cache.keys import symbolic_key
    from repro.symbolic.serde import (
        symbolic_result_from_payload,
        symbolic_result_to_payload,
    )

    key = None
    try:
        key = symbolic_key(program)
    except Uncacheable:
        pass
    if key is not None and key in _MEMO:
        obs.count("symbolic.memo_hits")
        return _MEMO[key]
    store = resolve_cache(cache, cache_dir)
    if store is not None and key is not None:
        payload = store.get("symbolic", key)
        if payload is not None:
            try:
                result = symbolic_result_from_payload(payload)
            except (KeyError, TypeError, ValueError):
                result = None  # malformed entry: recompute and overwrite
            if result is not None:
                obs.count("symbolic.cache_hits")
                _MEMO[key] = result
                return result

    result = solve_program(program)
    if key is not None:
        _MEMO[key] = result
        if store is not None:
            from repro.cache import Unserializable

            try:
                store.put(
                    "symbolic", key, symbolic_result_to_payload(result)
                )
            except Unserializable:
                pass
    return result


#: process-local memo: symbolic key -> SymbolicResult (sweeps re-solve never)
_MEMO: dict[str, SymbolicResult] = {}


def clear_memo() -> None:
    """Drop the in-process memo (tests and mutation checks)."""
    _MEMO.clear()
