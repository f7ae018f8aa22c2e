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
  pair by the conflict screen (:func:`_screen`).  On a box index set a
  pair conflicts when a vector of ``T``'s Lagrange-reduced nullspace
  basis fits the index-difference box; the plan keeps each open pair's
  :class:`MappingMatrix` and the |entries| of that basis, stacked into one
  ``int64`` array per block of spaces, so a walk compares a whole block
  with the box widths at once.  Every pair no basis vector answers --
  every open pair, on an affine-constrained index set -- goes to
  :func:`~repro.mapping.conflicts.find_conflicts`, the package's one
  condition-3 test, whose enumeration is the only proof of
  conflict-freedom.

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
as ``mapping.solver.pruned.*``, once per search.

**Plan and walk.**  Only the schedule *order* (the time (4.5)), the
difference box of the conflict screen, its enumeration proofs, the
certifying check and the PE count read the index-set bounds; everything
else reads ``D``, ``P`` and the config.  So that binding-free part is a
:class:`SearchPlan`, built once per key and kept in a small in-process
LRU memo (:func:`search_plan`, :func:`clear_search_plans`).  It settles
its spaces in blocks of ``_BLOCK`` the first time a walk reaches them:
per space the cut counts and the open schedule positions, per open pair
the matrix and its |basis| rows, and the interconnect column answers.
Each search is a :class:`PlanWalk` over it: time the valid schedules,
sort them, screen each block of spaces with a few array operations, and
certify the designs the screen passes.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.mapping.conflicts import find_conflicts
from repro.mapping.engine import SearchConfig, space_map_catalog
from repro.mapping.feasibility import FeasibilityReport, check_feasibility
from repro.mapping.interconnect import _solve_column
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

#: Spaces a plan settles at once, the first time a walk reaches them: a
#: walk that stops early settles at most one block it does not need, and a
#: walk over settled blocks screens each with a few array operations.
_BLOCK = 64

#: A |basis| entry is stored as at most this, and a box width as at most
#: one less, so an entry beyond ``int64`` never fits and its pair goes to
#: :func:`find_conflicts`.
_I64_MAX = int(np.iinfo(np.int64).max)


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
    publishes whether it built the plan or reused it.  The survivors are
    settled in blocks of ``_BLOCK`` (:meth:`block`) on first use and kept,
    as are the interconnect column answers of ``memo``; entries are only
    ever added, so concurrent walks can share a plan.
    A plan is built from its memo key alone, so it cannot read a binding.
    """

    def __init__(self, key: tuple) -> None:
        n, d_cols, p_rows, target_space_dim, block_values, bound = key
        self.n = n
        self.d_cols = d_cols
        self.p_rows = p_rows
        #: The plan's ``plattice`` solves and interconnect column answers;
        #: walks share its column table.
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
        #: Nullspace dimension of a full-rank ``T = [S; Π]``.
        self.null_dim = max(n - target_space_dim - 1, 0)
        #: The settled blocks of spaces (:meth:`block`), ``None`` until a
        #: walk reaches them.
        self.blocks: list[_Block | None] = [None] * -(
            -len(self.spaces) // _BLOCK
        )
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
          under the largest deadline serves every schedule.  It is kept in
          the column table of ``memo``, keyed on ``(P, S d̄_i)``, where the
          certifying check of every walk reads it
          (:meth:`~repro.mapping.memo.EvalCache.get_column`).
        """
        space, mask = self.spaces[index], self.masks[index]
        g = _vector_gcd([x for row in space for x in row])
        null = integer_nullspace(space)
        if len(null) != self.n - len(space):
            null = None
        hops: list[int] | None = []
        if self.p_rows is not None and mask:
            for target, budget in zip(self.targets(space), self.max_deadlines):
                k_col = _solve_column(self.p_rows, target, budget, self.memo)
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
        return bytes(out)

    def block(self, number: int) -> "_Block":
        """Spaces ``number * _BLOCK`` onward, settled on first use."""
        block = self.blocks[number]
        if block is None:
            block = self.blocks[number] = self._settle(number)
        return block

    def _settle(self, number: int) -> "_Block":
        """Block ``number``: the cuts of its spaces and its open pairs."""
        start = number * _BLOCK
        stop = min(start + _BLOCK, len(self.spaces))
        cuts = [self.space_cuts(index) for index in range(start, stop)]
        space_of: list[int] = []
        pos_of: list[int] = []
        mappings: list[MappingMatrix] = []
        for index, row in enumerate(cuts, start):
            space = self.spaces[index]
            for pos, cut in enumerate(row):
                if cut == _OPEN:
                    space_of.append(index)
                    pos_of.append(pos)
                    mappings.append(
                        MappingMatrix(space + [list(self.schedules[pos])])
                    )
        table = np.frombuffer(b"".join(cuts), dtype=np.uint8).reshape(
            stop - start, len(self.schedules)
        )
        counts = (
            table[:, :, None] == np.arange(len(_CUT_COUNTERS), dtype=np.uint8)
        ).sum(axis=1)
        return _Block(
            start, stop, cuts, counts, space_of, pos_of, mappings,
            self._abs_basis(mappings),
        )

    def _abs_basis(self, mappings: list[MappingMatrix]) -> np.ndarray:
        """The |entries| of each matrix's reduced nullspace basis, as one
        ``int64`` array of shape ``(len(mappings), n - k, n)``.

        An entry whose magnitude ``int64`` cannot hold is stored as
        ``_I64_MAX``, which fits no box, so its pair goes to
        :func:`find_conflicts`.
        """
        bases = [mapping.nullspace() for mapping in mappings]
        shape = (len(mappings), self.null_dim, self.n)
        try:
            out = np.abs(np.array(bases, dtype=np.int64).reshape(shape))
        except OverflowError:
            out = np.array(
                [[[min(abs(x), _I64_MAX) for x in vec] for vec in basis]
                 for basis in bases],
                dtype=np.int64,
            ).reshape(shape)
        out[out < 0] = _I64_MAX  # |-2**63| wraps
        return out

    def walk(self, algorithm: Algorithm, binding: ParamBinding,
             primitives: Sequence[Sequence[int]] | None) -> "PlanWalk":
        """The per-binding walk over this plan (publishes the plan's
        stage counters, as a cold build would)."""
        obs.count_many(self.counters)
        return PlanWalk(self, algorithm, binding, primitives)


@dataclass(frozen=True)
class _Block:
    """Spaces ``start`` to ``stop - 1`` of a plan, settled: what a walk
    reads of them that does not depend on the binding.

    Per space, its :meth:`SearchPlan.space_cuts` bytes (``cuts``) and how
    many of its schedules each cut rejects, open ones counted as screened
    (``counts``, one row per space).  Per open pair
    ``(S, Π)``, in space order, then schedule enumeration order: its
    space index (``space``), schedule position (``pos``),
    :class:`MappingMatrix` (``mappings``) and the |entries| of that
    matrix's reduced nullspace basis (``basis``, ``int64``, shape
    ``(pairs, n - k, n)``).
    """

    start: int
    stop: int
    cuts: list[bytes]
    counts: np.ndarray
    space: list[int]
    pos: list[int]
    mappings: list[MappingMatrix]
    basis: np.ndarray

    def walk_order(
        self, pairs: Sequence[int], ranks: Sequence[int]
    ) -> list[int]:
        """``pairs`` in space order, then in a walk's schedule order
        (``ranks[pos]`` is a schedule position's place in it)."""
        return sorted(
            pairs, key=lambda i: (self.space[i], ranks[self.pos[i]])
        )


def _screen(walk: "PlanWalk", block: _Block) -> Iterator[int]:
    """The solver's conflict screen (condition 3) over one block.

    Yields, in space order, the first pair of each space, in the walk's
    schedule order, that has no conflict witness; a space whose open
    pairs all conflict yields nothing.  On a box index set a pair has a
    witness when a vector of its reduced nullspace basis fits the
    difference box ``Π [−w_i, w_i]``: one comparison of the block's
    |basis| array with the walk's widths decides that for every pair (the
    first step of :func:`find_conflicts`, batched).  Every other pair --
    every open pair on an affine-constrained index set, where the walk
    has no widths -- goes to :func:`find_conflicts`, in order, until one
    returns no witness; its enumeration is the only proof of
    conflict-freedom.  A generator, so a walk that stops early proves
    nothing past its last design.  One seam for the whole screen, so the
    verify mutation check can drop it.
    """
    if walk.widths is None:
        pairs: Sequence[int] = range(len(block.mappings))
    else:
        pairs = np.flatnonzero(
            ~(block.basis <= walk.widths).all(axis=2).any(axis=1)
        ).tolist()
    index_set = walk.algorithm.index_set
    done = None
    for pair in block.walk_order(pairs, walk.ranks):
        space = block.space[pair]
        if space != done and not find_conflicts(
            block.mappings[pair], index_set, walk.binding, limit=1,
            cache=walk.cache,
        ):
            done = space
            yield pair


class PlanWalk:
    """One search's pass over a :class:`SearchPlan` at one binding.

    Keeps only what reads the index-set bounds: the schedule times and
    their stable sort (the order of
    :func:`~repro.mapping.schedule.ranked_schedules`), the widths of the
    difference box, and a run-scoped :class:`EvalCache` for the conflict
    screen's enumeration and the certifying check (which keeps the
    instantiated difference box, serves the check the screen's complete
    answer for a conflict-free pair, and shares the plan's interconnect
    column answers).
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
        self.cache = EvalCache(plan.memo.columns)
        times = [
            execution_time(pi, algorithm, binding) for pi in plan.schedules
        ]
        #: Schedule positions, fastest first (ties keep enumeration order).
        self.order = sorted(range(len(times)), key=times.__getitem__)
        self.time_of = dict(zip(plan.schedules, times))
        #: Schedule position -> its place in ``order``.
        self.ranks = [0] * len(times)
        for rank, pos in enumerate(self.order):
            self.ranks[pos] = rank
        #: The difference box's widths ``hi_i - lo_i``, clipped into
        #: ``[-1, _I64_MAX - 1]`` (a negative width fits nothing), or
        #: ``None`` on an affine-constrained index set.
        self.widths: np.ndarray | None = None
        index_set = algorithm.index_set
        if not getattr(index_set, "is_constrained", False):
            self.widths = np.array(
                [min(max(hi - lo, -1), _I64_MAX - 1)
                 for lo, hi in index_set.bounds(binding)],
                dtype=np.int64,
            )

    def stream(
        self, stop_after: int | None
    ) -> Iterator[tuple[int, list[int], FeasibilityReport]]:
        """``(index, Π, report)`` for each planned space ``S`` with a
        design, in space order: the fastest ``Π`` making ``[S; Π]`` pass
        Definition 4.1, certified by :func:`check_feasibility`.

        Walks the plan block by block: the binding-free cuts
        (:meth:`SearchPlan.space_cuts`) leave each space's open pairs, and
        the conflict screen (:func:`_screen`) passes the first of them
        without a witness -- the same ``(Π, report)`` as the catalog
        evaluator, because every cut is sound and the per-pair tests are
        exact.  A ``Π`` that passes the screen but fails the check raises
        ``RuntimeError``.  Stops after ``stop_after`` designs (``None``:
        after every space), then publishes the cut counters once: per
        space walked, the schedules up to its returned ``Π``, or all of
        them when it has none.
        """
        plan = self.plan
        totals = [0] * len(_CUT_COUNTERS)
        found = 0
        for number in range(len(plan.blocks)):
            block = plan.block(number)
            stop = block.stop
            for pair in _screen(self, block):
                index, pos = block.space[pair], block.pos[pair]
                mapping = block.mappings[pair]
                report = check_feasibility(
                    mapping, self.algorithm, self.binding, self.primitives,
                    cache=self.cache,
                )
                if not report.feasible:
                    raise RuntimeError(
                        f"search passed {mapping!r}, which fails "
                        f"Definition 4.1: {report.summary()}"
                    )
                # This space counts the schedules walked before its Π.
                local = index - block.start
                cuts = block.cuts[local]
                for kind, n in enumerate(block.counts[local].tolist()):
                    totals[kind] -= n
                for q in self.order[:self.ranks[pos]]:
                    totals[cuts[q]] += 1
                yield index, list(plan.schedules[pos]), report
                found += 1
                if found == stop_after:
                    stop = index + 1
                    break
            walked = block.counts[:stop - block.start].sum(axis=0).tolist()
            totals = [a + b for a, b in zip(totals, walked)]
            if found == stop_after:
                break
        obs.count_many(
            {name: n for name, n in zip(_CUT_COUNTERS, totals) if n}
        )
