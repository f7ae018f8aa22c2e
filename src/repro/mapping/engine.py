"""The design-space search engine: pruned and memoized, in one process.

The paper presents the *results* of a space-time mapping search (eqs.
(4.2)/(4.6)); this module implements the search itself -- the joint
``(S, Π)`` synthesis of the paper's references [5, 6, 10] (Shang/Fortes,
Ganapathy/Wah) -- as a staged engine:

1. **Catalog** (:func:`space_map_catalog`): candidate space-map rows shaped
   like the paper's own designs -- per-axis projections ``e_i``, axis
   sums/differences ``e_i ± e_j``, and *blocked* combinations
   ``b·e_i + e_j`` (the paper's ``p·j₁ + i₁`` rows).
2. **Screen**: row combinations of deficient rank are dropped before any
   per-candidate work.
3. **Schedule reuse**
   (:func:`~repro.mapping.schedule.ranked_schedules`): the valid-schedule list
   depends only on ``(D, J, binding)``, not on ``S``, so it is enumerated
   and time-sorted *once* and shared by every space candidate (the naive
   search re-enumerated all ``(2b+1)^n`` schedules per candidate).
4. **Feasibility short-circuit**: per ``(S, Π)``, Definition 4.1 is checked
   cheapest-first (rank → coprime → ``ΠD>0`` → interconnect → conflicts)
   via :func:`~repro.mapping.feasibility.check_feasibility`, with conflict
   enumeration and interconnect column solves memoized in a run-scoped
   :class:`~repro.mapping.memo.EvalCache`.

Space candidates are scanned in catalog order until the early-stop cap,
so the ranked output is deterministic.  The default ``"solver"`` strategy
walks a memoized binding-free plan of this scan
(:func:`repro.mapping.solver.search_plan`) instead; the catalog walk
stays the reference it is checked against.

All knobs live on the frozen :class:`SearchConfig`; :func:`run_search` is
the engine entry point and :func:`search_designs` the stable public API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro import obs
from repro.mapping.feasibility import FeasibilityReport, check_feasibility
from repro.mapping.interconnect import check_primitive_rows
from repro.mapping.memo import EvalCache
from repro.mapping.pareto import (
    METRIC_NAMES,
    FrontierPoint,
    design_wire_length,
    pareto_frontier,
)
from repro.mapping.schedule import ranked_schedules
from repro.mapping.spacetime import processor_count
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding
from repro.util.linalg import integer_rank

__all__ = [
    "SearchConfig",
    "DesignCandidate",
    "space_map_catalog",
    "run_search",
    "search_designs",
]


@dataclass(frozen=True)
class SearchConfig:
    """All parameters of a design-space search, as one immutable value.

    Parameters
    ----------
    target_space_dim:
        ``k - 1``, the array dimension to synthesize (1 = linear array).
    block_values:
        Block factors for the catalog's ``b·e_i + e_j`` rows (pass ``(p,)``
        to reach designs like the paper's Fig. 4).
    schedule_bound:
        Coefficient bound for the shared valid-schedule enumeration.
    max_candidates:
        Return at most this many designs, best first (``None`` =
        exhaustive).
    overcollect:
        Early-stop factor: the scan stops after collecting
        ``max_candidates * overcollect`` feasible designs, *before* the
        final ranking.  This bounds latency but can miss faster designs
        that appear later in catalog order; pass ``None`` (or
        ``max_candidates=None``) to scan the whole catalog.  The default
        of 4 preserves the historical trade-off.  **Ignored under
        ``frontier=``**: a Pareto frontier computed over an early-stopped
        prefix could silently drop non-dominated designs that appear
        later in catalog order, so frontier collection always scans the
        whole space (``stop_after`` is ``None``).
    strategy:
        Candidate generation strategy.  ``"solver"`` (default) routes
        through the branch-and-prune constraint solver
        (:mod:`repro.mapping.solver`), which emits provably identical
        results while enumerating an order of magnitude fewer
        candidates; ``"catalog"`` is the enumerate-and-filter reference.
    frontier:
        ``None`` (default) returns the single ranked list ordered by
        ``(time, processors)``.  A non-empty tuple of metric names drawn
        from :data:`~repro.mapping.pareto.METRIC_NAMES` (``"time"``,
        ``"processors"``, ``"wire_length"``) instead returns the Pareto
        frontier over those metrics, canonically ordered by
        ``(metrics, rows)``.  Implies an exhaustive scan (see
        ``overcollect``); ``max_candidates`` still truncates the
        returned list -- pass ``max_candidates=None`` for the whole
        frontier.
    """

    target_space_dim: int = 2
    block_values: tuple[int, ...] = ()
    schedule_bound: int = 2
    max_candidates: int | None = 10
    overcollect: int | None = 4
    strategy: str = "solver"
    frontier: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "block_values", tuple(int(b) for b in self.block_values)
        )
        if self.frontier is not None:
            object.__setattr__(
                self, "frontier", tuple(str(m) for m in self.frontier)
            )
        if self.target_space_dim < 1:
            raise ValueError("target_space_dim must be >= 1")
        if self.schedule_bound < 0:
            raise ValueError("schedule_bound must be >= 0")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1 or None")
        if self.overcollect is not None and self.overcollect < 1:
            raise ValueError("overcollect must be >= 1 or None")
        if self.strategy not in ("catalog", "solver"):
            raise ValueError(
                f"strategy must be 'catalog' or 'solver', not "
                f"{self.strategy!r}"
            )
        if self.frontier is not None:
            if not self.frontier:
                raise ValueError("frontier must be a non-empty tuple or None")
            unknown = [m for m in self.frontier if m not in METRIC_NAMES]
            if unknown:
                raise ValueError(
                    f"unknown frontier metrics {unknown!r}; "
                    f"choose from {METRIC_NAMES}"
                )

    @property
    def stop_after(self) -> int | None:
        """Feasible-design count at which the scan stops early (or None).

        Always ``None`` in frontier mode: early-stopping on a *count* of
        feasible designs could drop non-dominated points found later in
        catalog order, so ``overcollect`` is a no-op under ``frontier=``.
        """
        if self.frontier is not None:
            return None
        if self.max_candidates is None or self.overcollect is None:
            return None
        return self.max_candidates * self.overcollect


@dataclass
class DesignCandidate:
    """One feasible design produced by the search.

    ``wire_length`` is the longest physical link the design needs
    (:func:`~repro.mapping.pareto.design_wire_length`) -- the third axis
    of the Pareto frontier alongside ``time`` and ``processors``.
    """

    mapping: MappingMatrix
    time: int
    processors: int
    report: FeasibilityReport
    wire_length: int = 0

    def __repr__(self) -> str:
        return (
            f"DesignCandidate(t={self.time}, PEs={self.processors}, "
            f"T={[list(r) for r in self.mapping.rows]})"
        )


# ---------------------------------------------------------------------------
# Stage 1+2: catalog and rank screen
# ---------------------------------------------------------------------------

def space_map_catalog(
    n: int, block_values: Sequence[int] = ()
) -> list[tuple[int, ...]]:
    """Candidate space-map rows for an ``n``-dimensional algorithm.

    Returns per-axis projections, pairwise sums/differences, and blocked
    rows ``b·e_i + e_j`` for each ``b`` in ``block_values`` -- the shapes
    from which the paper's own ``S`` matrices are drawn.
    """
    rows: list[tuple[int, ...]] = []

    def unit(i: int, scale: int = 1) -> list[int]:
        row = [0] * n
        row[i] = scale
        return row

    for i in range(n):
        rows.append(tuple(unit(i)))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = unit(i)
            row[j] = 1
            rows.append(tuple(row))
            row = unit(i)
            row[j] = -1
            rows.append(tuple(row))
    for b in block_values:
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                row = unit(i, b)
                row[j] = 1
                rows.append(tuple(row))
    # Deduplicate while preserving order.
    seen: set[tuple[int, ...]] = set()
    out = []
    for r in rows:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _space_candidates(
    n: int,
    target_space_dim: int,
    block_values: Sequence[int],
) -> Iterator[list[list[int]]]:
    catalog = space_map_catalog(n, block_values)
    for combo in itertools.combinations(catalog, target_space_dim):
        s = [list(r) for r in combo]
        if integer_rank(s) < target_space_dim:
            obs.count("mapping.pruned.space_rank")
            continue
        obs.count("mapping.space_candidates")
        yield s


# ---------------------------------------------------------------------------
# Stage 4: per-candidate evaluation (the catalog reference)
# ---------------------------------------------------------------------------

@dataclass
class _CatalogWalk:
    """The reference walk: each space against every time-sorted schedule.

    Its :meth:`stream` of ``(index, Π, report)`` is the one the solver's
    :class:`~repro.mapping.solver.PlanWalk` yields, so :func:`run_search`
    drives either one.
    """

    algorithm: Algorithm
    binding: ParamBinding
    primitives: Sequence[Sequence[int]] | None
    schedules: list[tuple[int, tuple[int, ...]]]
    spaces: list[list[list[int]]]
    cache: EvalCache = field(default_factory=EvalCache)

    @property
    def time_of(self) -> dict[tuple[int, ...], int]:
        return {pi: t for t, pi in self.schedules}

    def evaluate(
        self, index: int
    ) -> tuple[list[int], FeasibilityReport] | None:
        """The fastest schedule making ``[space; Π]`` pass Definition 4.1.

        Walks the shared time-sorted schedule list and returns the first
        ``Π`` whose full feasibility check (including conflict-freedom
        with this specific ``S``) passes.  Condition 5 (coprime entries
        of ``T``) is pre-screened before the full check.
        """
        space = self.spaces[index]
        for _, pi in self.schedules:
            mapping = MappingMatrix(space + [list(pi)])
            if not mapping.entries_coprime():
                obs.count("mapping.pruned.coprime_precheck")
                continue
            report = check_feasibility(
                mapping, self.algorithm, self.binding, self.primitives,
                cache=self.cache,
            )
            if report.feasible:
                return list(pi), report
        return None

    def stream(
        self, stop_after: int | None
    ) -> Iterator[tuple[int, list[int], FeasibilityReport]]:
        """``(index, Π, report)`` for each space :meth:`evaluate` finds a
        design for, in space order, until ``stop_after`` designs
        (``None``: every space)."""
        found = 0
        for index in range(len(self.spaces)):
            result = self.evaluate(index)
            if result is not None:
                yield (index, *result)
                found += 1
                if found == stop_after:
                    return


def _walk(
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None,
    config: SearchConfig,
):
    """The run's walk: the solver's walk over its memoized plan, or the
    catalog reference over the rank-screened catalog."""
    if config.strategy == "solver":
        from repro.mapping.solver import search_plan

        plan = search_plan(algorithm, primitives, config)
        return plan.walk(algorithm, binding, primitives)
    return _CatalogWalk(
        algorithm, binding, primitives,
        ranked_schedules(algorithm, binding, config.schedule_bound),
        list(_space_candidates(
            algorithm.dim, config.target_space_dim, config.block_values
        )),
    )


# ---------------------------------------------------------------------------
# The engine entry point and the public API
# ---------------------------------------------------------------------------

def run_search(
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None,
    config: SearchConfig | None = None,
) -> list[DesignCandidate]:
    """Enumerate feasible designs, best (fastest, then smallest) first.

    Parameters
    ----------
    algorithm:
        The algorithm ``(J, D, E)`` to map.
    binding:
        Parameter values instantiating ``J``.
    primitives:
        Interconnection primitive matrix ``P`` for the target array
        (``None`` = unconstrained interconnect; condition 2 waived).
    config:
        The :class:`SearchConfig` (defaults throughout when omitted).

    Space candidates are evaluated in scan order until
    ``config.stop_after`` feasible designs are collected, so the ranked
    result list is deterministic.  A ``primitives`` matrix whose row count
    differs from ``config.target_space_dim`` raises ``ValueError``.
    """
    config = config if config is not None else SearchConfig()
    if primitives is not None:
        check_primitive_rows(primitives, config.target_space_dim)
    stop_after = config.stop_after
    found: list[DesignCandidate] = []
    with obs.span(
        "mapping.search_designs",
        dim=algorithm.dim,
        target_space_dim=config.target_space_dim,
        schedule_bound=config.schedule_bound,
        strategy=config.strategy,
    ):
        walk = _walk(algorithm, binding, primitives, config)
        time_of = walk.time_of
        obs.gauge("mapping.schedule_pool", len(time_of))
        d_cols = [tuple(c) for c in algorithm.dependences.columns()]
        evaluated = len(walk.spaces)
        for index, pi, report in walk.stream(stop_after):
            space = walk.spaces[index]
            mapping = MappingMatrix(
                space + [pi], name=f"T-search-{len(found)}"
            )
            found.append(
                DesignCandidate(
                    mapping=mapping,
                    time=time_of[tuple(pi)],
                    processors=processor_count(
                        mapping, algorithm.index_set, binding
                    ),
                    report=report,
                    wire_length=design_wire_length(
                        report.interconnect, space, d_cols
                    ),
                )
            )
            if len(found) == stop_after:
                evaluated = index + 1
        obs.gauge("progress.mapping.spaces", evaluated)
        found = _rank(found, config)
        obs.count("mapping.designs_found", len(found))
    return found


def _rank(
    found: list[DesignCandidate], config: SearchConfig
) -> list[DesignCandidate]:
    """Order (and truncate) the collected designs per the config.

    Classic mode sorts by ``(time, processors)``; frontier mode keeps the
    Pareto-non-dominated designs over the configured metrics, canonically
    ordered by ``(metrics, rows)``.
    """
    if config.frontier is not None:
        by_point = {
            FrontierPoint(
                metrics=tuple(getattr(c, m) for m in config.frontier),
                rows=c.mapping.rows,
            ): c
            for c in found
        }
        frontier = pareto_frontier(by_point)
        obs.count("mapping.frontier_size", len(frontier))
        found = [by_point[pt] for pt in frontier]
    else:
        found.sort(key=lambda c: (c.time, c.processors))
    if config.max_candidates is not None:
        found = found[:config.max_candidates]
    return found


def search_designs(
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None = None,
    config: SearchConfig | None = None,
) -> list[DesignCandidate]:
    """Search the design space (see :func:`run_search`); all knobs live
    on ``config=SearchConfig(...)``."""
    return run_search(algorithm, binding, primitives, config)
