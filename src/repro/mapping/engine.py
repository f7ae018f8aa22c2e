"""The design-space search engine: parallel, pruned, and memoized.

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
3. **Schedule reuse** (:func:`ranked_schedules`): the valid-schedule list
   depends only on ``(D, J, binding)``, not on ``S``, so it is enumerated
   and time-sorted *once* and shared by every space candidate (the naive
   search re-enumerated all ``(2b+1)^n`` schedules per candidate).
4. **Feasibility short-circuit**: per ``(S, Π)``, Definition 4.1 is checked
   cheapest-first (rank → coprime → ``ΠD>0`` → interconnect → conflicts)
   via :func:`~repro.mapping.feasibility.check_feasibility`, with conflict
   enumeration and interconnect column solves memoized in a run-scoped
   :class:`~repro.mapping.memo.EvalCache`.
5. **Parallel merge**: with ``workers > 1`` space candidates fan out over a
   ``ProcessPoolExecutor``; results are merged in candidate-catalog order,
   so the ranked output is *identical* for every worker count
   (``workers=1`` runs in-process with no executor at all).

All knobs live on the frozen :class:`SearchConfig`; :func:`run_search` is
the engine entry point and :func:`search_designs` the stable public API.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro import obs
from repro.mapping.feasibility import FeasibilityReport, check_feasibility
from repro.mapping.memo import EvalCache
from repro.mapping.pareto import (
    METRIC_NAMES,
    FrontierPoint,
    design_wire_length,
    pareto_frontier,
)
from repro.mapping.schedule import execution_time, schedule_is_valid
from repro.mapping.spacetime import processor_count
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding
from repro.util.linalg import integer_rank

__all__ = [
    "SearchConfig",
    "DesignCandidate",
    "space_map_catalog",
    "ranked_schedules",
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
    require_busy:
        Enforce condition 5 (coprime entries of ``T``) as a pre-screen
        before the full feasibility check.
    workers:
        Process fan-out for space candidates.  ``1`` (default) evaluates
        in-process; higher values use a ``ProcessPoolExecutor``.  Results
        are identical for every value -- only wall-clock changes.
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
        Candidate generation strategy.  ``"catalog"`` is the PR 2
        enumerate-and-filter path; ``"solver"`` routes through the
        branch-and-prune constraint solver (:mod:`repro.mapping.solver`),
        which emits provably identical results while enumerating an
        order of magnitude fewer candidates.  ``"auto"`` (default)
        resolves to ``"solver"``.
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
    persist_cache:
        Persist the run-scoped :class:`~repro.mapping.memo.EvalCache`
        across runs through the artifact store (:mod:`repro.cache`): the
        shared memo entry is loaded before the scan and the merged table
        saved after it.  ``None`` (default) enables persistence iff
        ``$REPRO_CACHE_DIR`` is set; memo keys are canonical values, so
        entries are valid across any search configuration.  Only the
        main process's table is persisted under ``workers > 1``.
    """

    target_space_dim: int = 2
    block_values: tuple[int, ...] = ()
    schedule_bound: int = 2
    max_candidates: int | None = 10
    require_busy: bool = True
    workers: int = 1
    overcollect: int | None = 4
    persist_cache: bool | None = None
    strategy: str = "auto"
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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.overcollect is not None and self.overcollect < 1:
            raise ValueError("overcollect must be >= 1 or None")
        if self.strategy not in ("auto", "catalog", "solver"):
            raise ValueError(
                "strategy must be 'auto', 'catalog' or 'solver'"
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
    def resolved_strategy(self) -> str:
        """The concrete generation strategy (``"auto"`` -> ``"solver"``)."""
        return "solver" if self.strategy == "auto" else self.strategy

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
# Stage 3: shared schedule enumeration
# ---------------------------------------------------------------------------

def ranked_schedules(
    algorithm: Algorithm,
    binding: ParamBinding,
    schedule_bound: int,
) -> list[tuple[int, tuple[int, ...]]]:
    """All valid schedules within the coefficient bound, fastest first.

    Returns ``(execution_time, Π)`` pairs sorted by time (ties keep
    enumeration order).  Validity (``Π D > 0``) and the time (4.5) depend
    only on ``(D, J, binding)`` -- not on the space mapping -- so the
    search computes this list once and reuses it for every space candidate.
    """
    n = algorithm.dim
    out: list[tuple[int, tuple[int, ...]]] = []
    rejected = 0
    for pi in itertools.product(
        range(-schedule_bound, schedule_bound + 1), repeat=n
    ):
        if not schedule_is_valid(pi, algorithm):
            rejected += 1
            continue
        out.append((execution_time(pi, algorithm, binding), tuple(pi)))
    out.sort(key=lambda item: item[0])
    obs.count_many(
        {
            "schedules_tried": rejected + len(out),
            "schedules_valid": len(out),
        },
        prefix="mapping.",
    )
    return out


# ---------------------------------------------------------------------------
# Stage 4: per-candidate evaluation (shared by sequential and worker paths)
# ---------------------------------------------------------------------------

@dataclass
class _EvalContext:
    """Everything needed to evaluate one space candidate."""

    algorithm: Algorithm
    binding: ParamBinding
    primitives: Sequence[Sequence[int]] | None
    schedules: list[tuple[int, tuple[int, ...]]]
    require_busy: bool
    cache: EvalCache
    strategy: str = "catalog"
    solver_ctx: object | None = None

    def solver_context(self):
        """The lazily built (and process-local) solver constraint tables."""
        if self.solver_ctx is None:
            from repro.mapping.solver import SolverContext

            self.solver_ctx = SolverContext(
                self.algorithm, self.binding, self.primitives,
                self.schedules, self.require_busy, self.cache,
            )
        return self.solver_ctx


def _evaluate_space(
    space: list[list[int]], ctx: _EvalContext
) -> tuple[list[int], FeasibilityReport] | None:
    """The fastest schedule making ``[space; Π]`` pass Definition 4.1.

    Walks the shared time-sorted schedule list and returns the first ``Π``
    whose full feasibility check (including conflict-freedom with this
    specific ``S``) passes.  The walk runs under a
    ``mapping.evaluate_space`` span -- the per-candidate trace unit that
    worker processes ship back in their registry deltas, so sequential and
    parallel runs produce the same span structure.

    Under ``strategy="solver"`` the walk is delegated to
    :func:`repro.mapping.solver.evaluate_space_solver`, which returns the
    same ``(Π, report)`` for every space while discharging the cheap
    Definition 4.1 conditions as cuts before the full check.
    """
    if ctx.strategy == "solver":
        from repro.mapping.solver import evaluate_space_solver

        return evaluate_space_solver(space, ctx.solver_context())
    with obs.span("mapping.evaluate_space"):
        for _, pi in ctx.schedules:
            mapping = MappingMatrix(space + [list(pi)])
            if ctx.require_busy and not mapping.entries_coprime():
                obs.count("mapping.pruned.coprime_precheck")
                continue
            report = check_feasibility(
                mapping, ctx.algorithm, ctx.binding, ctx.primitives,
                cache=ctx.cache,
            )
            if report.feasible:
                return list(pi), report
    return None


def _iter_sequential(
    spaces: list[list[list[int]]],
    ctx: _EvalContext,
    cap: int | None,
    progress=obs.NULL_PROGRESS,
) -> Iterator[tuple[list[list[int]], list[int], FeasibilityReport]]:
    yielded = 0
    for space in spaces:
        result = _evaluate_space(space, ctx)
        progress.advance()
        if result is None:
            continue
        yield space, result[0], result[1]
        yielded += 1
        if cap is not None and yielded >= cap:
            return


# ---------------------------------------------------------------------------
# Stage 5: process fan-out with deterministic merge
# ---------------------------------------------------------------------------

#: Per-process evaluation context, installed by the pool initializer so the
#: algorithm/schedule payload is shipped once per worker, not per chunk, and
#: the memo cache persists across the chunks a worker processes.
_WORKER_CTX: _EvalContext | None = None

#: Whether the parent had telemetry enabled when the pool was created;
#: workers only pay for per-candidate registries (and ship deltas back)
#: when someone is collecting.
_WORKER_TELEMETRY: bool = False


def _worker_init(payload: tuple) -> None:
    global _WORKER_CTX, _WORKER_TELEMETRY
    (algorithm, binding, primitives, schedules, require_busy, strategy,
     telemetry) = payload
    _WORKER_CTX = _EvalContext(
        algorithm=algorithm,
        binding=binding,
        primitives=primitives,
        schedules=schedules,
        require_busy=require_busy,
        cache=EvalCache(),
        strategy=strategy,
    )
    _WORKER_TELEMETRY = telemetry


def _eval_chunk(
    chunk: list[tuple[int, list[list[int]]]],
) -> list[tuple[int, list[int] | None, FeasibilityReport | None, dict | None]]:
    """Evaluate a chunk of (index, space) candidates in a worker process.

    With telemetry on, every candidate is evaluated under its own
    registry and returns ``(index, pi, report, delta)`` -- ``pi``/
    ``report`` are ``None`` for infeasible candidates, and ``delta`` is
    the candidate's full registry delta (counters, histograms, the
    ``mapping.evaluate_space`` span tree).  Per-candidate deltas let the
    parent merge telemetry in catalog order and stop merging exactly at
    the early-stop point, so aggregate metrics match the sequential scan
    even though workers evaluate speculatively past it.

    With telemetry off, only feasible candidates are returned (with
    ``delta=None``) and no registries are created.
    """
    ctx = _WORKER_CTX
    assert ctx is not None, "worker used before initialization"
    out: list[tuple[int, list[int] | None, FeasibilityReport | None,
                    dict | None]] = []
    for index, space in chunk:
        if _WORKER_TELEMETRY:
            with obs.collecting() as reg:
                result = _evaluate_space(space, ctx)
            pi, report = result if result is not None else (None, None)
            out.append((index, pi, report, reg.delta()))
        else:
            result = _evaluate_space(space, ctx)
            if result is not None:
                out.append((index, result[0], result[1], None))
    return out


def _structural_copy(algorithm: Algorithm) -> Algorithm:
    """The algorithm minus its computation set.

    Feasibility only consults ``(J, D)``; dropping ``E`` keeps the worker
    payload small and avoids pickling executable semantics closures.
    """
    return Algorithm(
        algorithm.index_set, algorithm.dependences, None, algorithm.name
    )


def _iter_parallel(
    spaces: list[list[list[int]]],
    ctx: _EvalContext,
    workers: int,
    cap: int | None,
    progress=obs.NULL_PROGRESS,
) -> Iterator[tuple[list[list[int]], list[int], FeasibilityReport]]:
    telemetry = obs.enabled()
    payload = (
        _structural_copy(ctx.algorithm),
        ctx.binding,
        ctx.primitives,
        ctx.schedules,
        ctx.require_busy,
        ctx.strategy,
        telemetry,
    )
    indexed = list(enumerate(spaces))
    # Small chunks keep the pool busy near the early-stop point without
    # flooding the result queue; the merge order (and hence the output) is
    # chunk order, so the chunk size never affects results.
    chunk_size = max(1, -(-len(indexed) // (workers * 8)))
    chunks = [
        indexed[i:i + chunk_size] for i in range(0, len(indexed), chunk_size)
    ]
    reg = obs.get_registry()
    yielded = 0
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(payload,)
    ) as pool:
        futures = [pool.submit(_eval_chunk, chunk) for chunk in chunks]
        for future in futures:
            # Futures are consumed (and per-candidate deltas merged) in
            # catalog order, and the merge stops at the candidate that
            # fills the early-stop cap -- exactly the prefix the
            # sequential scan would have evaluated -- so aggregate
            # metrics are identical for every worker count (up to the
            # worker-local cache's hit/miss split, whose sum is stable).
            for index, pi, report, delta in future.result():
                if reg is not None and delta is not None:
                    reg.merge_delta(delta)
                    progress.advance()
                if pi is None:
                    continue
                yield spaces[index], pi, report
                yielded += 1
                if cap is not None and yielded >= cap:
                    for pending in futures:
                        pending.cancel()
                    return


# ---------------------------------------------------------------------------
# Cross-run memo persistence
# ---------------------------------------------------------------------------

_MEMO_KIND = "mapping-memo"
_MEMO_KEY = "shared"


def _load_memo(store, cache: EvalCache) -> None:
    """Seed ``cache`` from the shared persisted memo entry (best-effort)."""
    from repro.cache import Unserializable, decode_obj

    payload = store.get(_MEMO_KIND, _MEMO_KEY)
    if not isinstance(payload, list):
        return
    loaded = 0
    for entry in payload:
        try:
            key, value = entry
            cache.data[decode_obj(key)] = decode_obj(value)
            loaded += 1
        except (Unserializable, TypeError, ValueError):
            continue
    obs.count("mapping.memo_loaded", loaded)


def _save_memo(store, cache: EvalCache) -> None:
    """Persist ``cache`` (already merged with the loaded entries)."""
    from repro.cache import Unserializable, encode_obj

    payload = []
    for key, value in cache.data.items():
        try:
            payload.append([encode_obj(key), encode_obj(value)])
        except Unserializable:
            continue
    store.put(_MEMO_KIND, _MEMO_KEY, payload)
    obs.count("mapping.memo_saved", len(payload))


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

    The ranked result list is deterministic and identical for every
    ``config.workers`` value.
    """
    config = config if config is not None else SearchConfig()
    strategy = config.resolved_strategy
    found: list[DesignCandidate] = []
    n = algorithm.dim
    with obs.span(
        "mapping.search_designs",
        dim=n,
        target_space_dim=config.target_space_dim,
        schedule_bound=config.schedule_bound,
        workers=config.workers,
        strategy=strategy,
    ):
        obs.gauge("mapping.workers", config.workers)
        schedules = ranked_schedules(algorithm, binding, config.schedule_bound)
        obs.gauge("mapping.schedule_pool", len(schedules))
        time_of = {pi: t for t, pi in schedules}
        ctx = _EvalContext(
            algorithm=algorithm,
            binding=binding,
            primitives=primitives,
            schedules=schedules,
            require_busy=config.require_busy,
            cache=EvalCache(),
            strategy=strategy,
        )
        store = None
        if config.persist_cache is not False:
            from repro.cache import resolve_cache

            store = resolve_cache(config.persist_cache, None)
            if store is not None:
                _load_memo(store, ctx.cache)
        if strategy == "solver":
            from repro.mapping.solver import enumerate_spaces

            spaces = enumerate_spaces(
                ctx.solver_context(), config.target_space_dim,
                config.block_values,
            )
        else:
            spaces = list(
                _space_candidates(
                    n, config.target_space_dim, config.block_values
                )
            )
        d_cols = [tuple(c) for c in algorithm.dependences.columns()]
        with obs.progress("mapping.spaces", total=len(spaces)) as progress:
            if config.workers <= 1 or len(spaces) <= 1 or not schedules:
                feasible = _iter_sequential(
                    spaces, ctx, config.stop_after, progress
                )
            else:
                feasible = _iter_parallel(
                    spaces, ctx, config.workers, config.stop_after, progress
                )
            for space, pi, report in feasible:
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
        found = _rank(found, config)
        obs.count("mapping.designs_found", len(found))
        if store is not None and ctx.cache.misses:
            _save_memo(store, ctx.cache)
    return found


def _rank(
    found: list[DesignCandidate], config: SearchConfig
) -> list[DesignCandidate]:
    """Order (and truncate) the collected designs per the config.

    Classic mode sorts by ``(time, processors)``; frontier mode keeps the
    Pareto-non-dominated designs over the configured metrics, canonically
    ordered by ``(metrics, rows)``.  Shared by :func:`run_search` and the
    sharded coordinator so both produce identical output from the same
    feasible stream.
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
