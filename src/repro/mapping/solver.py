"""Constraint-driven candidate generation: Definition 4.1 as integer cuts.

The catalog engine (:mod:`repro.mapping.engine`) *enumerates* ``(S, Π)``
pairs and filters them through :func:`check_feasibility`, so its cost
scales with catalog size.  This module inverts that: Definition 4.1's
conditions become an integer constraint system whose cheap consequences
are evaluated *during* enumeration, as branch-and-prune cuts that discard
whole subtrees of the space-row search before any feasibility call.

Constraint derivation (see docs/SEARCH.md for the full write-up):

* **Condition 2** (``S·D = P·K`` with ``Σ_j k_ji <= Π d̄_i``) says each
  displacement ``S d̄_i`` is a *nonnegative* integer combination of at
  most ``Π d̄_i`` primitive columns.  Three relaxations are cheap and
  sound, and each binds a single space row ``s`` at array axis ``r``:

  - *divisibility*: axis ``r`` of ``P k̄`` lies in the subgroup
    ``g_r·Z`` with ``g_r = gcd_j P[r][j]``, so ``g_r | s·d̄_i``;
  - *hop budget*: ``|s·d̄_i| <= M_r · Σ_j k_ji`` with
    ``M_r = max_j |P[r][j]|``, so ``ceil(|s·d̄_i| / M_r)`` hops are
    needed but only ``Π d̄_i`` are available;
  - *lattice membership*: the full vector ``S d̄_i`` must be an integer
    (sign-free) combination of ``P``'s columns -- decided exactly by the
    Smith-normal-form solver :func:`~repro.util.linalg.solve_integer_system`.

  The first two depend only on ``(row, axis, schedule)``, so they are
  precomputed once per catalog row as a bitmask over the valid schedules;
  a partial row prefix whose accumulated mask is empty prunes its entire
  subtree.  The lattice test depends only on ``S`` (not ``Π``) and prunes
  every schedule of a space at once.

* **Condition 3** (``τ`` injective) is decided exactly per ``(S, Π)``
  pair by :func:`~repro.mapping.conflicts.find_conflicts`, the package's
  one condition-3 test: a nonzero vector of ``T``'s integer nullspace
  lattice inside the index-difference box, or a colliding pair on an
  affine-constrained index set.  The plan keeps each pair's
  :class:`MappingMatrix`, whose Lagrange-reduced nullspace basis is
  computed once; a conflicting pair is usually answered by a basis
  vector in the box, and enumeration runs to prove a pair
  conflict-free.

* **Condition 4** (``rank T = k``) is monotone under row extension, so
  rank-deficient prefixes are cut at the branch point.

Every cut is *sound*: it only removes candidates that
:func:`check_feasibility` would reject.  Per pair, the cuts of conditions
1, 2, 4 and 5 and the conflict screen are exact, and enumeration follows
the exact catalog order of the engine, so the feasible-design stream --
and hence the ranked or Pareto output, even under an early-stop cap -- is
identical to the catalog path's.  ``check_feasibility`` runs once per
returned design, to certify it and supply its report (on this path the
only place ``mapping.candidates_enumerated`` counts); a design it rejects
raises ``RuntimeError`` naming it, which the differential oracle and the
equivalence suite pin never happens.  Per-cut prune counts are published
as ``mapping.solver.pruned.*``.

**Plan and walk.**  Only the schedule *order* (the time (4.5)), the
conflict screen, the certifying check and the PE count read the
index-set bounds; everything else reads ``D``, ``P`` and the config.  So
that binding-free part is a :class:`SearchPlan`, built once per key and
kept in a small in-process LRU memo (:func:`search_plan`,
:func:`clear_search_plans`), and each search is a :class:`PlanWalk` over
it: time the valid schedules, sort them, and walk the planned spaces.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from math import gcd
from operator import mul
from typing import Sequence

from repro import obs
from repro.mapping.conflicts import find_conflicts
from repro.mapping.engine import SearchConfig, space_map_catalog
from repro.mapping.feasibility import FeasibilityReport, check_feasibility
from repro.mapping.interconnect import _column_combinations
from repro.mapping.memo import EvalCache
from repro.mapping.schedule import execution_time
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding
from repro.util.linalg import (
    integer_nullspace,
    integer_rank,
    solve_integer_system,
)

__all__ = ["SearchPlan", "PlanWalk", "search_plan", "clear_search_plans"]

#: Plans kept in process; one per (D, P, config) key, least recently used
#: evicted first.  A ``design_flow`` pass needs three.
_PLAN_CAPACITY = 16

_PLANS: "OrderedDict[tuple, SearchPlan]" = OrderedDict()
_PLANS_LOCK = threading.Lock()

#: Per-schedule outcome of the binding-free cuts, in the walk's
#: attribution order; ``_OPEN`` schedules go on to the conflict screen.
_DEADLINE, _COPRIME, _RANK, _INTERCONNECT, _SCREEN = range(5)
_OPEN = _SCREEN
_CUT_COUNTERS = (
    "mapping.solver.pruned.deadline",
    "mapping.pruned.coprime_precheck",
    "mapping.solver.pruned.rank",
    "mapping.solver.pruned.interconnect",
    "mapping.solver.pruned.conflict_screen",
)


def _hop_budget(deadline: int) -> int:
    """Hop budget available under a schedule deadline ``Π d̄_i``.

    Condition 2 allows at most ``deadline`` primitive hops per dependence
    column; slack becomes link buffers.  Kept as a named seam so the
    verify mutation check can tighten it by one and prove the differential
    oracle notices an unsound cut.
    """
    return deadline


def _vector_gcd(row: Sequence[int]) -> int:
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    return g


def _plan_key(
    algorithm: Algorithm,
    primitives: Sequence[Sequence[int]] | None,
    config: SearchConfig,
) -> tuple:
    """Everything the binding-free stages read."""
    return (
        algorithm.dim,
        tuple(tuple(c) for c in algorithm.dependences.columns()),
        None if primitives is None
        else tuple(tuple(int(x) for x in row) for row in primitives),
        config.target_space_dim,
        config.block_values,
        config.schedule_bound,
    )


def clear_search_plans() -> None:
    """Drop every memoized :class:`SearchPlan` (the next search of each
    key builds its plan cold)."""
    with _PLANS_LOCK:
        _PLANS.clear()


def search_plan(
    algorithm: Algorithm,
    primitives: Sequence[Sequence[int]] | None,
    config: SearchConfig,
) -> "SearchPlan":
    """The memoized plan of ``(D, P, config)``, built on a miss.

    Counts ``mapping.plan_hits`` / ``mapping.plan_misses``.  Two threads
    that miss on one key at once both build it, and both use the plan
    that reached the memo first.
    """
    key = _plan_key(algorithm, primitives, config)
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            _PLANS.move_to_end(key)
    if plan is not None:
        obs.count("mapping.plan_hits")
        return plan
    obs.count("mapping.plan_misses")
    built = SearchPlan(key)
    with _PLANS_LOCK:
        plan = _PLANS.setdefault(key, built)
        _PLANS.move_to_end(key)
        while len(_PLANS) > _PLAN_CAPACITY:
            _PLANS.popitem(last=False)
    return plan


class SearchPlan:
    """The binding-free half of one solver search.

    Holds the valid schedules in enumeration order with their deadlines
    ``Π d̄_i`` and gcds, the branch-and-prune survivors (``spaces``) with
    their row masks over that order, and the stage counters a search
    publishes whether it built the plan or reused it.  Each survivor's
    cut outcomes (:meth:`space_cuts`) and each walked ``(S, Π)`` pair's
    :class:`MappingMatrix` (which keeps the nullspace basis the conflict
    screen reads) are filled in on first use and kept; entries are only
    ever added, so concurrent walks can share a plan.
    A plan is built from its memo key alone, so it cannot read a binding.
    """

    def __init__(self, key: tuple) -> None:
        n, d_cols, p_rows, target_space_dim, block_values, bound = key
        self.n = n
        self.d_cols = d_cols
        self.p_rows = p_rows
        #: The ``plattice``/``icol`` solves of the plan, shared by walks.
        self.memo = EvalCache()
        self.schedules: list[tuple[int, ...]] = []
        self.deadlines: list[tuple[int, ...]] = []
        tried = 0
        for pi in itertools.product(range(-bound, bound + 1), repeat=n):
            tried += 1
            # Condition 1: Π D > 0.
            if all(sum(map(mul, pi, col)) > 0 for col in d_cols):
                self.schedules.append(pi)
                self.deadlines.append(
                    tuple(sum(map(mul, pi, col)) for col in d_cols)
                )
        #: Per dependence column, the largest deadline over the schedules:
        #: the hop budget of the once-per-space condition-2 solve.
        self.max_deadlines = [max(col) for col in zip(*self.deadlines)]
        #: Per-schedule gcd of ``Π``'s entries: condition 5 splits as
        #: ``gcd(T) = gcd(gcd(S), gcd(Π))``.
        self.pi_gcd = [_vector_gcd(pi) for pi in self.schedules]
        self.all_mask = (1 << len(self.schedules)) - 1
        if p_rows is not None:
            #: Per array axis: gcd and max |entry| of the primitive row.
            self.row_gcd = [_vector_gcd(row) for row in p_rows]
            self.row_max = [
                max((abs(x) for x in row), default=0) for row in p_rows
            ]
        self._disp_memo: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._mask_memo: dict[tuple[tuple[int, ...], int], int] = {}
        self.spaces: list[list[list[int]]] = []
        self.masks: list[int] = []
        pruned = self._enumerate_spaces(target_space_dim, block_values)
        self._cuts: list[bytes | None] = [None] * len(self.spaces)
        #: Per space, schedule position -> the pair's ``T = [S; Π]``.
        self.mappings: list[dict[int, MappingMatrix]] = [
            {} for _ in self.spaces
        ]
        self.counters = {
            "mapping.schedules_tried": tried,
            "mapping.schedules_valid": len(self.schedules),
            **{f"mapping.solver.pruned.{k}": v for k, v in pruned.items()},
            "mapping.solver.space_candidates": len(self.spaces),
            # The strategy-independent funnel counter: space candidates
            # handed to the downstream schedule/feasibility stages.
            "mapping.space_candidates": len(self.spaces),
        }

    # -- per-row tables -------------------------------------------------------

    def displacements(self, row: tuple[int, ...]) -> tuple[int, ...]:
        """``(s·d̄_1, ..., s·d̄_m)`` for one candidate space row."""
        out = self._disp_memo.get(row)
        if out is None:
            out = tuple(sum(map(mul, row, col)) for col in self.d_cols)
            self._disp_memo[row] = out
        return out

    def targets(self, space: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """The displacements ``S d̄_i`` of a space map, one per column."""
        return list(zip(*(self.displacements(tuple(row)) for row in space)))

    def row_mask(self, row: tuple[int, ...], axis: int) -> int:
        """Bitmask of schedules admitting ``row`` at array axis ``axis``.

        Bit ``i`` (schedule ``i`` in enumeration order) is set iff, for
        every dependence column, the divisibility and hop-budget
        relaxations of condition 2 hold for this (row, axis) under that
        schedule.  All-ones when the target interconnect is unconstrained.
        """
        if self.p_rows is None:
            return self.all_mask
        key = (row, axis)
        mask = self._mask_memo.get(key)
        if mask is not None:
            return mask
        g = self.row_gcd[axis]
        m_r = self.row_max[axis]
        mask = 0
        # Schedule-independent subgroup test first: a violation kills the
        # row at this axis for every schedule.
        min_hops = []
        for disp in self.displacements(row):
            if disp == 0:
                min_hops.append(0)
            elif g == 0 or disp % g != 0 or m_r == 0:
                break
            else:
                min_hops.append(-(-abs(disp) // m_r))
        else:
            for idx, deadlines in enumerate(self.deadlines):
                if all(
                    lb <= _hop_budget(deadline)
                    for lb, deadline in zip(min_hops, deadlines)
                ):
                    mask |= 1 << idx
        self._mask_memo[key] = mask
        return mask

    # -- per-space cuts -------------------------------------------------------

    def lattice_feasible(self, space: Sequence[Sequence[int]]) -> bool:
        """Exact (sign-free) condition-2 relaxation for a full space map.

        ``S d̄_i = P k̄`` needs an *integer* solution before it can have a
        nonnegative one; decided by the Smith-form solver and memoized on
        the displacement vector in the plan's :class:`EvalCache`.
        """
        if self.p_rows is None:
            return True
        for target in self.targets(space):
            if any(target):
                solvable = self.memo.get_or_compute(
                    ("plattice", self.p_rows, target),
                    lambda: solve_integer_system(
                        [list(r) for r in self.p_rows], list(target)
                    )
                    is not None,
                )
                if not solvable:
                    return False
        return True

    def _enumerate_spaces(
        self, target_space_dim: int, block_values: Sequence[int]
    ) -> dict[str, int]:
        """Fill ``spaces``/``masks`` by branch-and-prune; return the cuts.

        Walks catalog-row combinations in the exact order of
        ``itertools.combinations`` over :func:`space_map_catalog` -- the
        engine's enumeration order -- but cuts subtrees as soon as a row
        prefix is provably infeasible:

        * ``rank_subtree`` -- the prefix is linearly dependent, so no
          extension reaches rank ``k-1`` (condition 4);
        * ``row_budget`` -- no schedule survives the accumulated
          divisibility/hop-budget masks (condition 2);
        * ``lattice`` -- some displacement ``S d̄_i`` is outside the
          integer column lattice of ``P`` (condition 2).

        Each cut at depth ``d`` discards all ``C(remaining, k-1-d)``
        completions at once, which is where the enumeration savings come
        from.  The survivors are a subset of the engine's rank-screened
        candidates containing every feasible design, in identical order.
        """
        catalog = space_map_catalog(self.n, block_values)
        total = len(catalog)
        pruned = {"rank_subtree": 0, "row_budget": 0, "lattice": 0}

        def extend(
            start: int, chosen: list[tuple[int, ...]], mask: int
        ) -> None:
            depth = len(chosen)
            if depth == target_space_dim:
                space = [list(r) for r in chosen]
                if not self.lattice_feasible(space):
                    pruned["lattice"] += 1
                    return
                self.spaces.append(space)
                self.masks.append(mask)
                return
            for idx in range(start, total - (target_space_dim - depth - 1)):
                row = catalog[idx]
                new_mask = mask & self.row_mask(row, depth)
                if new_mask == 0:
                    pruned["row_budget"] += 1
                    continue
                prefix = [list(r) for r in chosen] + [list(row)]
                if integer_rank(prefix) <= depth:
                    pruned["rank_subtree"] += 1
                    continue
                extend(idx + 1, chosen + [row], new_mask)

        extend(0, [], self.all_mask)
        return pruned

    def space_cuts(self, index: int) -> bytes:
        """Which binding-free cut rejects each schedule of space ``index``.

        One byte per schedule (enumeration order): ``_DEADLINE`` (row
        masks), ``_COPRIME`` (condition 5), ``_RANK`` (condition 4),
        ``_INTERCONNECT`` (condition 2), or ``_OPEN`` when the schedule
        reaches the conflict screen.  The schedule-independent halves run
        once per space:

        * the coprime pre-check fails iff ``gcd(g, gcd(Π)) != 1`` (``g``
          is the gcd of ``S``'s entries);
        * the rank condition fails iff ``Π·v == 0`` for every ``v`` in an
          integer nullspace basis of ``S`` (always, when ``S`` is
          rank-deficient);
        * the interconnect condition fails iff ``Π d̄_i < hops[i]`` for
          some column, ``hops[i]`` being the minimum hop count of
          ``S d̄_i``: the depth-first solve returns the same minimum-hop
          ``k̄`` under every budget at least that minimum, so one solve
          under the largest deadline (memoized on the ``("icol", ...)``
          key ``check_feasibility`` uses) serves every schedule.
        """
        cuts = self._cuts[index]
        if cuts is not None:
            return cuts
        space, mask = self.spaces[index], self.masks[index]
        g = _vector_gcd([x for row in space for x in row])
        null = integer_nullspace(space)
        if len(null) != self.n - len(space):
            null = None
        hops: list[int] | None = []
        if self.p_rows is not None and mask:
            for target, budget in zip(self.targets(space), self.max_deadlines):
                k_col = self.memo.get_or_compute(
                    ("icol", self.p_rows, target, budget),
                    lambda: _column_combinations(self.p_rows, target, budget),
                )
                if k_col is None:
                    hops = None
                    break
                hops.append(sum(k_col))
        out = bytearray()
        for idx, pi in enumerate(self.schedules):
            if not (mask >> idx) & 1:
                out.append(_DEADLINE)
            elif gcd(g, self.pi_gcd[idx]) != 1:
                out.append(_COPRIME)
            elif null is None or not any(
                sum(map(mul, pi, vec)) for vec in null
            ):
                out.append(_RANK)
            elif hops is None or any(
                t < h for t, h in zip(self.deadlines[idx], hops)
            ):
                out.append(_INTERCONNECT)
            else:
                out.append(_OPEN)
        cuts = self._cuts[index] = bytes(out)
        return cuts

    def walk(self, algorithm: Algorithm, binding: ParamBinding,
             primitives: Sequence[Sequence[int]] | None) -> "PlanWalk":
        """The per-binding walk over this plan (publishes the plan's
        stage counters, as a cold build would)."""
        obs.count_many(self.counters)
        return PlanWalk(self, algorithm, binding, primitives)


class PlanWalk:
    """One search's pass over a :class:`SearchPlan` at one binding.

    Keeps only what reads the index-set bounds: the schedule times and
    their stable sort (the order of
    :func:`~repro.mapping.engine.ranked_schedules`), and a run-scoped
    :class:`EvalCache` for the conflict screen and the certifying check
    (which keeps the instantiated difference box, and serves the check
    the screen's complete answer for a conflict-free pair).
    """

    def __init__(
        self,
        plan: SearchPlan,
        algorithm: Algorithm,
        binding: ParamBinding,
        primitives: Sequence[Sequence[int]] | None,
    ) -> None:
        self.plan = plan
        self.algorithm = algorithm
        self.binding = binding
        self.primitives = primitives
        self.spaces = plan.spaces
        self.cache = EvalCache()
        times = [
            execution_time(pi, algorithm, binding) for pi in plan.schedules
        ]
        #: Schedule positions, fastest first (ties keep enumeration order).
        self.order = sorted(range(len(times)), key=times.__getitem__)
        self.time_of = dict(zip(plan.schedules, times))

    def evaluate(
        self, index: int
    ) -> tuple[list[int], FeasibilityReport] | None:
        """The fastest schedule making ``[S; Π]`` pass Definition 4.1,
        ``S`` being planned space ``index``.

        Walks the schedules fastest first under the
        ``mapping.evaluate_space`` span and returns the first ``Π`` that
        passes the binding-free cuts (:meth:`SearchPlan.space_cuts`) and
        the conflict screen (:func:`find_conflicts`, one witness), with
        the report of :func:`check_feasibility` certifying it -- the same
        ``(Π, report)`` as the catalog evaluator, because every cut is
        sound and the per-pair tests are exact.  A ``Π`` that passes the
        screen but fails the check raises ``RuntimeError``.  Counts cover
        the schedules up to the returned ``Π`` (all of them when none is
        feasible) and are published once per space.
        """
        plan = self.plan
        with obs.span("mapping.evaluate_space"):
            cuts = plan.space_cuts(index)
            mappings = plan.mappings[index]
            space = plan.spaces[index]
            index_set = self.algorithm.index_set
            counts = [0] * len(_CUT_COUNTERS)
            result: tuple[list[int], FeasibilityReport] | None = None
            for idx in self.order:
                cut = cuts[idx]
                if cut != _OPEN:
                    counts[cut] += 1
                    continue
                mapping = mappings.get(idx)
                if mapping is None:
                    mapping = mappings[idx] = MappingMatrix(
                        space + [list(plan.schedules[idx])]
                    )
                if find_conflicts(
                    mapping, index_set, self.binding, limit=1,
                    cache=self.cache,
                ):
                    counts[_SCREEN] += 1
                    continue
                report = check_feasibility(
                    mapping, self.algorithm, self.binding, self.primitives,
                    cache=self.cache,
                )
                if not report.feasible:
                    raise RuntimeError(
                        f"search passed {mapping!r}, which fails "
                        f"Definition 4.1: {report.summary()}"
                    )
                result = (list(plan.schedules[idx]), report)
                break
            obs.count_many(
                {name: n for name, n in zip(_CUT_COUNTERS, counts) if n}
            )
            return result
