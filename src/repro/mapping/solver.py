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
  precomputed once per catalog row as a bitmask over the shared schedule
  list; a partial row prefix whose accumulated mask is empty prunes its
  entire subtree.  The lattice test depends only on ``S`` (not ``Π``)
  and prunes every schedule of a space at once.

* **Condition 3** (``τ`` injective) fails whenever a nonzero integer
  nullspace vector of ``T`` fits the index-difference box -- in
  particular when a *basis* vector of the nullspace lattice
  (:func:`~repro.util.linalg.integer_nullspace`, again Smith form) does.
  That one-sided screen certifies most conflicts without the bounded
  lattice-point enumeration (box index sets only; constrained sets skip
  the screen).

* **Condition 4** (``rank T = k``) is monotone under row extension, so
  rank-deficient prefixes are cut at the branch point.

Every cut is *sound*: it only removes candidates that
:func:`check_feasibility` would reject, and enumeration follows the exact
catalog order of the engine, so the feasible-design stream -- and hence
the ranked or Pareto output, even under an early-stop cap -- is identical
to the catalog path's.  Survivors still pass through the full
``check_feasibility`` gate (the only place ``mapping.candidates_enumerated``
counts), which is what the differential oracle and the equivalence suite
pin.  Per-cut prune counts are published as ``mapping.solver.pruned.*``.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Sequence

from repro import obs
from repro.mapping.engine import space_map_catalog
from repro.mapping.feasibility import FeasibilityReport, check_feasibility
from repro.mapping.interconnect import _column_combinations
from repro.mapping.memo import EvalCache
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding
from repro.util.linalg import (
    integer_nullspace,
    integer_rank,
    solve_integer_system,
)

__all__ = ["SolverContext", "enumerate_spaces", "evaluate_space_solver"]


def _hop_budget(deadline: int) -> int:
    """Hop budget available under a schedule deadline ``Π d̄_i``.

    Condition 2 allows at most ``deadline`` primitive hops per dependence
    column; slack becomes link buffers.  Kept as a named seam so the
    verify mutation check can tighten it by one and prove the differential
    oracle notices an unsound cut.
    """
    return deadline


def _final_gate(
    mapping: MappingMatrix,
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None,
    cache: EvalCache | None,
) -> FeasibilityReport:
    """The full Definition 4.1 check every surviving candidate must pass.

    A named seam like :func:`_hop_budget`: the verify mutation check swaps
    it for a gate that drops the conflict condition and demands that the
    differential oracle produce a counterexample.
    """
    return check_feasibility(
        mapping, algorithm, binding, primitives, cache=cache
    )


class SolverContext:
    """Precomputed constraint tables for one (algorithm, primitives) search.

    Construction is deterministic; the per-row admissibility bitmasks and
    per-displacement lattice answers are shared across every space
    candidate of the run.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        binding: ParamBinding,
        primitives: Sequence[Sequence[int]] | None,
        schedules: list[tuple[int, tuple[int, ...]]],
        cache: EvalCache,
    ) -> None:
        self.algorithm = algorithm
        self.binding = binding
        self.primitives = primitives
        self.schedules = schedules
        self.cache = cache
        self.n = algorithm.dim
        self.d_cols = [tuple(c) for c in algorithm.dependences.columns()]
        #: Per-schedule deadlines ``Π d̄_i``, aligned with ``schedules``.
        self.deadlines = [
            tuple(
                sum(pi[r] * col[r] for r in range(self.n))
                for col in self.d_cols
            )
            for _, pi in schedules
        ]
        #: Per dependence column, the largest deadline over the schedules:
        #: the hop budget of the once-per-space condition-2 solve.
        self.max_deadlines = [max(col) for col in zip(*self.deadlines)]
        #: Per-schedule gcd of ``Π``'s entries: condition 5 splits as
        #: ``gcd(T) = gcd(gcd(S), gcd(Π))``.
        self.pi_gcd = [_vector_gcd(pi) for _, pi in schedules]
        self.all_mask = (1 << len(schedules)) - 1
        if primitives is not None:
            self.p_rows = [tuple(int(x) for x in row) for row in primitives]
            #: Per array axis: gcd and max |entry| of the primitive row.
            self.row_gcd = [
                _vector_gcd(row) for row in self.p_rows
            ]
            self.row_max = [
                max((abs(x) for x in row), default=0) for row in self.p_rows
            ]
            self.p_key = tuple(self.p_rows)
        else:
            self.p_rows = None
            self.row_gcd = []
            self.row_max = []
            self.p_key = None
        #: Conflict screen: a nullspace basis vector of ``T`` inside the
        #: index-difference box is a certain conflict -- valid only for
        #: plain box index sets (constrained sets use pair enumeration).
        if getattr(algorithm.index_set, "is_constrained", False):
            self.diff_box = None
        else:
            bounds = algorithm.index_set.bounds(binding)
            self.diff_box = tuple((lo - hi, hi - lo) for lo, hi in bounds)
        self._disp_memo: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._mask_memo: dict[tuple[tuple[int, ...], int], int] = {}

    # -- per-row tables -------------------------------------------------------

    def displacements(self, row: tuple[int, ...]) -> tuple[int, ...]:
        """``(s·d̄_1, ..., s·d̄_m)`` for one candidate space row."""
        out = self._disp_memo.get(row)
        if out is None:
            out = tuple(
                sum(row[r] * col[r] for r in range(self.n))
                for col in self.d_cols
            )
            self._disp_memo[row] = out
        return out

    def targets(self, space: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """The displacements ``S d̄_i`` of a space map, one per column."""
        return list(zip(*(self.displacements(tuple(row)) for row in space)))

    def row_mask(self, row: tuple[int, ...], axis: int) -> int:
        """Bitmask of schedules admitting ``row`` at array axis ``axis``.

        Bit ``i`` is set iff, for every dependence column, the
        divisibility and hop-budget relaxations of condition 2 hold for
        this (row, axis) under schedule ``i``.  All-ones when the target
        interconnect is unconstrained.
        """
        if self.p_rows is None:
            return self.all_mask
        key = (row, axis)
        mask = self._mask_memo.get(key)
        if mask is not None:
            return mask
        disps = self.displacements(row)
        g = self.row_gcd[axis]
        m_r = self.row_max[axis]
        # Schedule-independent subgroup test first: a violation kills the
        # row at this axis for every schedule.
        feasible_cols = True
        min_hops = []
        for disp in disps:
            if disp == 0:
                min_hops.append(0)
                continue
            if g == 0 or disp % g != 0 or m_r == 0:
                feasible_cols = False
                break
            min_hops.append(-(-abs(disp) // m_r))
        if not feasible_cols:
            mask = 0
        else:
            mask = 0
            for idx, deadlines in enumerate(self.deadlines):
                budget_ok = all(
                    lb <= _hop_budget(deadline)
                    for lb, deadline in zip(min_hops, deadlines)
                )
                if budget_ok:
                    mask |= 1 << idx
        self._mask_memo[key] = mask
        return mask

    # -- per-space cuts -------------------------------------------------------

    def lattice_feasible(self, space: Sequence[Sequence[int]]) -> bool:
        """Exact (sign-free) condition-2 relaxation for a full space map.

        ``S d̄_i = P k̄`` needs an *integer* solution before it can have a
        nonnegative one; decided by the Smith-form solver and memoized on
        the displacement vector in the run's :class:`EvalCache` (the same
        store the interconnect and conflict solves share), so equivalent
        queries are answered once per run.
        """
        if self.p_rows is None:
            return True
        for target in self.targets(space):
            if any(target):
                key = ("plattice", self.p_key, target)
                solvable = self.cache.get_or_compute(
                    key,
                    lambda: solve_integer_system(
                        [list(r) for r in self.p_rows], list(target)
                    )
                    is not None,
                )
                if not solvable:
                    return False
        return True

    def space_tables(
        self, space: list[list[int]]
    ) -> tuple[int, list[list[int]] | None, list[int] | None]:
        """The schedule-independent halves of conditions 5, 4 and 2.

        Returns ``(g, null, hops)``; a schedule ``Π`` then passes

        * the coprime pre-check iff ``gcd(g, gcd(Π)) == 1`` (``g`` is
          the gcd of ``S``'s entries);
        * the rank condition iff ``Π·v != 0`` for some ``v`` in ``null``,
          an integer nullspace basis of ``S`` -- ``None`` when ``S`` is
          rank-deficient, which fails every schedule;
        * the interconnect condition iff ``Π d̄_i >= hops[i]`` for every
          column.  ``hops[i]`` is the minimum hop count of ``S d̄_i``:
          the depth-first solve returns the same minimum-hop ``k̄`` under
          every budget at least that minimum, so one solve under the
          largest deadline (memoized on the ``("icol", ...)`` key the
          final gate uses) serves every schedule.  ``None`` when some
          column needs more hops than any deadline allows; ``[]`` for an
          unconstrained interconnect.
        """
        g = _vector_gcd([x for row in space for x in row])
        null = integer_nullspace(space)
        if len(null) != self.n - len(space):
            null = None
        if self.p_rows is None:
            return g, null, []
        hops: list[int] | None = []
        for target, budget in zip(self.targets(space), self.max_deadlines):
            k_col = self.cache.get_or_compute(
                ("icol", self.p_key, target, budget),
                lambda: _column_combinations(self.p_rows, target, budget),
            )
            if k_col is None:
                hops = None
                break
            hops.append(sum(k_col))
        return g, null, hops

    def conflict_screened(self, rows: list[list[int]]) -> bool:
        """True when a nullspace basis vector certifies a conflict."""
        if self.diff_box is None:
            return False
        for vec in integer_nullspace(rows):
            if any(vec) and all(
                lo <= x <= hi
                for x, (lo, hi) in zip(vec, self.diff_box)
            ):
                return True
        return False


def _vector_gcd(row: Sequence[int]) -> int:
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    return g


def enumerate_spaces(
    ctx: SolverContext,
    target_space_dim: int,
    block_values: Sequence[int],
) -> list[list[list[int]]]:
    """Space candidates surviving the branch-and-prune row search.

    Walks catalog-row combinations in the exact order of
    ``itertools.combinations`` over :func:`space_map_catalog` -- the
    engine's enumeration order -- but cuts subtrees as soon as a row
    prefix is provably infeasible:

    * ``mapping.solver.pruned.rank_subtree`` -- the prefix is linearly
      dependent, so no extension reaches rank ``k-1`` (condition 4);
    * ``mapping.solver.pruned.row_budget`` -- no schedule survives the
      accumulated divisibility/hop-budget masks (condition 2);
    * ``mapping.solver.pruned.lattice`` -- some displacement ``S d̄_i``
      is outside the integer column lattice of ``P`` (condition 2).

    Each cut at depth ``d`` discards all ``C(remaining, k-1-d)``
    completions at once, which is where the enumeration savings come
    from.  The survivor list is a subset of the engine's rank-screened
    candidates containing every feasible design, in identical order.
    """
    catalog = space_map_catalog(ctx.n, block_values)
    total = len(catalog)
    survivors: list[list[list[int]]] = []
    pruned = {"rank_subtree": 0, "row_budget": 0, "lattice": 0}

    def extend(
        start: int, chosen: list[tuple[int, ...]], mask: int
    ) -> None:
        depth = len(chosen)
        if depth == target_space_dim:
            space = [list(r) for r in chosen]
            if not ctx.lattice_feasible(space):
                pruned["lattice"] += 1
                return
            survivors.append(space)
            return
        for idx in range(start, total - (target_space_dim - depth - 1)):
            row = catalog[idx]
            new_mask = mask & ctx.row_mask(row, depth)
            if new_mask == 0:
                pruned["row_budget"] += 1
                continue
            if integer_rank([list(r) for r in chosen] + [list(row)]) <= depth:
                pruned["rank_subtree"] += 1
                continue
            extend(idx + 1, chosen + [row], new_mask)

    extend(0, [], ctx.all_mask)
    obs.count_many(pruned, prefix="mapping.solver.pruned.")
    obs.count("mapping.solver.space_candidates", len(survivors))
    # The strategy-independent funnel counter: space candidates handed to
    # the downstream schedule/feasibility stages.
    obs.count("mapping.space_candidates", len(survivors))
    return survivors


def evaluate_space_solver(
    space: list[list[int]], ctx: SolverContext
) -> tuple[list[int], FeasibilityReport] | None:
    """The fastest schedule making ``[space; Π]`` pass Definition 4.1.

    Drop-in replacement for the engine's catalog evaluator: walks the
    shared time-sorted schedule list under the same
    ``mapping.evaluate_space`` span and returns the first feasible ``Π``,
    but discharges the cheap conditions as cuts before the final
    :func:`check_feasibility` gate.  Their schedule-independent halves
    run once per space (:meth:`SolverContext.space_tables`), so each
    schedule costs a few integer tests, attributed in this order:

    * ``mapping.solver.pruned.deadline`` -- schedule excluded by the
      precomputed row masks (condition 2 relaxations);
    * ``mapping.pruned.coprime_precheck`` -- same pre-screen and counter
      as the catalog path (condition 5);
    * ``mapping.solver.pruned.rank`` -- ``Π`` linearly dependent on the
      space rows (condition 4);
    * ``mapping.solver.pruned.interconnect`` -- some deadline ``Π d̄_i``
      is below the minimum hop count of ``S d̄_i`` (condition 2);
    * ``mapping.solver.pruned.conflict_screen`` -- a nullspace basis
      vector inside the difference box certifies a conflict (condition 3).

    Counts cover the schedules up to the returned ``Π`` (all of them when
    none is feasible) and are published once per space.  Because every
    cut is sound, the returned ``(Π, report)`` is identical to the
    catalog evaluator's for every space.
    """
    with obs.span("mapping.evaluate_space"):
        mask = ctx.all_mask
        for axis, row in enumerate(space):
            mask &= ctx.row_mask(tuple(row), axis)
        g, null, hops = ctx.space_tables(space) if mask else (0, None, None)
        result: tuple[list[int], FeasibilityReport] | None = None
        # Tallied locally, published once below -- a per-schedule obs call
        # would dominate the walk's cost.
        deadline = coprime = rank = interconnect = screened = 0
        for idx, (_, pi) in enumerate(ctx.schedules):
            if not (mask >> idx) & 1:
                deadline += 1
            elif gcd(g, ctx.pi_gcd[idx]) != 1:
                coprime += 1
            elif null is None or not any(
                sum(map(mul, pi, vec)) for vec in null
            ):
                rank += 1
            elif hops is None or any(
                t < h for t, h in zip(ctx.deadlines[idx], hops)
            ):
                interconnect += 1
            else:
                rows = space + [list(pi)]
                if ctx.conflict_screened(rows):
                    screened += 1
                    continue
                report = _final_gate(
                    MappingMatrix(rows), ctx.algorithm, ctx.binding,
                    ctx.primitives, ctx.cache,
                )
                if report.feasible:
                    result = (list(pi), report)
                    break
        counts = {
            "mapping.solver.pruned.deadline": deadline,
            "mapping.pruned.coprime_precheck": coprime,
            "mapping.solver.pruned.rank": rank,
            "mapping.solver.pruned.interconnect": interconnect,
            "mapping.solver.pruned.conflict_screen": screened,
        }
        obs.count_many({name: n for name, n in counts.items() if n})
        return result
