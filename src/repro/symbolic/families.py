"""Closed-form dependence families and the symbolic region algebra.

A *family* is the parametric analogue of a set of
:class:`~repro.depanalysis.pairs.DependenceInstance` rows: one write/read
pair's full solution set, represented so that instantiation at any
``(u, p)`` is O(1) counting work instead of lattice enumeration.

Two shapes cover everything the analyzer meets:

* :class:`UniformFamily` -- the solution lattice maps bijectively onto
  the sink coordinates and the source is always ``sink - vector`` for a
  single (parametric) distance ``vector``.  The instance set is then a
  *region* over sink space: a union (DNF) of conjunctions, each
  conjunction holding per-axis interval bounds plus ``=``/``!=`` atoms
  from the statement guards.  Counting a conjunction is a per-axis
  product; counting the union is inclusion-exclusion with empty-
  intersection pruning.  Every program produced by
  :func:`repro.ir.expand.expand_bit_level` lands here (identity
  subscript coefficients), which is what makes ``u = p = 1024``
  answerable instantly.
* :class:`GeneralFamily` -- the fallback for non-uniform distances (the
  variable-distance dependences of Kale et al.): the symbolic
  ``(particular, basis)`` pair is kept and instantiation enumerates the
  concrete lattice exactly like the reference analyzer.  Correct for any
  program, but not O(1); :attr:`SymbolicResult.closed_form` reports
  which regime a result is in.

All bounds, guard values, and distances are
:class:`~repro.structures.params.LinExpr`; nothing is evaluated until a
binding arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.depanalysis.pairs import DependenceInstance, check_int64
from repro.structures.conditions import (
    And,
    Condition,
    Eq,
    FALSE,
    Ne,
    Not,
    Or,
    TRUE,
)
from repro.structures.params import LinExpr, ParamBinding, as_linexpr
from repro.symbolic.solve import SymbolicUnsupported

__all__ = [
    "AxisConstraint",
    "Conjunction",
    "GeneralFamily",
    "UniformFamily",
    "condition_to_region",
    "conjunction_count",
    "conjunction_points",
    "lex_kind",
    "region_and",
    "region_count",
    "region_points",
    "shifted_bounds",
    "universe",
]

#: a region is a union of conjunctions (DNF) over the sink coordinates
Region = tuple["Conjunction", ...]


def lex_kind(vec: Sequence[int]) -> str:
    """The analyzer's classification of a nonzero distance vector."""
    for x in vec:
        if x > 0:
            return "flow"
        if x < 0:
            return "reversed"
    raise ValueError("zero distance vector has no kind")


def shifted_bounds(lo: LinExpr, hi: LinExpr, delta: LinExpr):
    """Sink-space image of ``lo <= sink - delta <= hi`` (source-in-box)."""
    return lo + delta, hi + delta


@dataclass(frozen=True)
class AxisConstraint:
    """Constraints on one sink axis inside a conjunction.

    ``intervals`` are inclusive ``(lo, hi)`` pairs (all must hold); ``eq``
    pins the axis to every listed value (more than one distinct value at a
    binding means the conjunction is empty); ``ne`` excludes values.
    """

    intervals: tuple[tuple[LinExpr, LinExpr], ...] = ()
    eq: tuple[LinExpr, ...] = ()
    ne: tuple[LinExpr, ...] = ()

    def merge(self, other: "AxisConstraint") -> "AxisConstraint":
        return AxisConstraint(
            _dedupe(self.intervals + other.intervals),
            _dedupe(self.eq + other.eq),
            _dedupe(self.ne + other.ne),
        )

    def admissible(self, binding: ParamBinding) -> tuple[int, int, set, set]:
        """Evaluated ``(lo, hi, eq_values, ne_values)`` at ``binding``."""
        lo = hi = None
        for l_expr, h_expr in self.intervals:
            lv, hv = l_expr.evaluate(binding), h_expr.evaluate(binding)
            lo = lv if lo is None else max(lo, lv)
            hi = hv if hi is None else min(hi, hv)
        if lo is None or hi is None:
            raise SymbolicUnsupported("axis without interval bounds")
        eqs = {e.evaluate(binding) for e in self.eq}
        nes = {e.evaluate(binding) for e in self.ne}
        return lo, hi, eqs, nes

    def count(self, binding: ParamBinding) -> int:
        lo, hi, eqs, nes = self.admissible(binding)
        if eqs:
            if len(eqs) > 1:
                return 0
            v = next(iter(eqs))
            return int(lo <= v <= hi and v not in nes)
        if hi < lo:
            return 0
        return hi - lo + 1 - sum(1 for v in nes if lo <= v <= hi)

    def values(self, binding: ParamBinding) -> np.ndarray:
        """The admissible values at ``binding``, ascending, as ``int64``
        (a value outside ``int64`` raises a ``ValueError`` naming it)."""
        lo, hi, eqs, nes = self.admissible(binding)
        if eqs:
            if len(eqs) > 1:
                return np.zeros(0, np.int64)
            v = next(iter(eqs))
            if lo <= v <= hi and v not in nes:
                return np.array([check_int64(v)], np.int64)
            return np.zeros(0, np.int64)
        if hi < lo:
            return np.zeros(0, np.int64)
        values = check_int64(lo) + np.arange(
            check_int64(hi) - lo + 1, dtype=np.int64
        )
        excluded = [v for v in nes if lo <= v <= hi]
        if excluded:
            values = values[~np.isin(values, excluded)]
        return values


def _dedupe(items: tuple) -> tuple:
    return tuple(dict.fromkeys(items))


@dataclass(frozen=True)
class Conjunction:
    """One DNF term: the conjunction of its per-axis constraints."""

    axes: tuple[AxisConstraint, ...]

    def merge(self, other: "Conjunction") -> "Conjunction":
        return Conjunction(
            tuple(a.merge(b) for a, b in zip(self.axes, other.axes))
        )


def universe(n: int) -> Conjunction:
    return Conjunction((AxisConstraint(),) * n)


def conjunction_count(conj: Conjunction, binding: ParamBinding) -> int:
    total = 1
    for axis in conj.axes:
        total *= axis.count(binding)
        if total == 0:
            return 0
    return total


def conjunction_points(conj: Conjunction, binding: ParamBinding) -> np.ndarray:
    """The conjunction's points at ``binding``, one ``int64`` row each."""
    if conjunction_count(conj, binding) == 0:
        return np.zeros((0, len(conj.axes)), np.int64)
    grids = np.meshgrid(
        *(axis.values(binding) for axis in conj.axes), indexing="ij"
    )
    return np.stack([grid.ravel() for grid in grids], axis=1)


def region_and(left: Region, right: Region) -> Region:
    """Intersection of two DNF regions (cross product of terms)."""
    return tuple(a.merge(b) for a in left for b in right)


def region_count(region: Region, binding: ParamBinding) -> int:
    """Exact point count of a union of conjunctions at ``binding``.

    Inclusion-exclusion over nonempty subsets; a subset whose
    intersection is already empty prunes all of its supersets (adding
    constraints cannot repopulate a conjunction), which keeps the
    recursion far below ``2^k`` on guard-heavy regions.
    """
    terms = [c for c in region if conjunction_count(c, binding) > 0]
    total = 0

    def expand(start: int, current: Conjunction, sign: int) -> None:
        nonlocal total
        count = conjunction_count(current, binding)
        if count == 0:
            return
        total += sign * count
        for j in range(start, len(terms)):
            expand(j + 1, current.merge(terms[j]), -sign)

    for i, term in enumerate(terms):
        expand(i + 1, term, 1)
    return total


def region_points(region: Region, binding: ParamBinding) -> np.ndarray:
    """Materialize the region, one ``int64`` row per point (size-
    proportional).  A point in several conjunctions appears once per
    conjunction: the caller's table drops the repeats."""
    parts = [conjunction_points(conj, binding) for conj in region]
    return np.concatenate(parts) if parts else np.zeros((0, 0), np.int64)


def _negate(cond: Condition) -> Condition:
    if cond is TRUE:
        return FALSE
    if cond is FALSE:
        return TRUE
    if isinstance(cond, Eq):
        return Ne(cond.axis, cond.value)
    if isinstance(cond, Ne):
        return Eq(cond.axis, cond.value)
    if isinstance(cond, Not):
        return cond.term
    if isinstance(cond, And):
        return Or(*(_negate(t) for t in cond.terms))
    if isinstance(cond, Or):
        return And(*(_negate(t) for t in cond.terms))
    raise SymbolicUnsupported(f"cannot negate condition {cond!r}")


def condition_to_region(
    cond: Condition, n: int, shift: Sequence[LinExpr] | None = None
) -> Region:
    """DNF region (over sink coordinates) of a guard condition.

    ``shift`` translates a *source-side* guard into sink space: with
    ``source = sink - vector``, the atom ``axis == e`` at the source
    becomes ``axis == e + vector[axis]`` at the sink.
    """
    if cond is TRUE:
        return (universe(n),)
    if cond is FALSE:
        return ()
    if isinstance(cond, (Eq, Ne)):
        value = as_linexpr(cond.value)
        if shift is not None:
            value = value + shift[cond.axis]
        axes = list(universe(n).axes)
        if isinstance(cond, Eq):
            axes[cond.axis] = AxisConstraint(eq=(value,))
        else:
            axes[cond.axis] = AxisConstraint(ne=(value,))
        return (Conjunction(tuple(axes)),)
    if isinstance(cond, Not):
        return condition_to_region(_negate(cond.term), n, shift)
    if isinstance(cond, And):
        region = (universe(n),)
        for term in cond.terms:
            region = region_and(region, condition_to_region(term, n, shift))
        return region
    if isinstance(cond, Or):
        out: Region = ()
        for term in cond.terms:
            out = out + condition_to_region(term, n, shift)
        return out
    raise SymbolicUnsupported(
        f"guard {cond!r} is not representable in the symbolic region algebra"
    )


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformFamily:
    """A closed-form dependence family with one parametric distance.

    Every member instance is ``(sink - vector, sink)`` for a sink inside
    ``region``; ``zeros`` are the solver's feasibility predicates (all
    must evaluate to 0 for the family to exist at a binding).
    """

    vector: tuple[LinExpr, ...]
    variable: str
    region: Region
    zeros: tuple[LinExpr, ...] = field(default=())

    def vector_at(self, binding: ParamBinding) -> tuple[int, ...] | None:
        """Concrete distance, or None when the family is vacuous there."""
        if any(z.evaluate(binding) != 0 for z in self.zeros):
            return None
        vec = tuple(e.evaluate(binding) for e in self.vector)
        if not any(vec):
            return None  # source == sink is never a dependence
        return vec

    def count(self, binding: ParamBinding) -> int:
        if self.vector_at(binding) is None:
            return 0
        return region_count(self.region, binding)

    def sinks(self, binding: ParamBinding) -> np.ndarray:
        """The member sinks at ``binding``, one ``int64`` row each (as
        :func:`region_points`, repeats included)."""
        if self.vector_at(binding) is None:
            return np.zeros((0, len(self.vector)), np.int64)
        return region_points(self.region, binding)


@dataclass(frozen=True)
class GeneralFamily:
    """Fallback family: symbolic lattice kept, instantiation enumerates.

    ``box`` is the per-axis symbolic bound list over the stacked
    ``(source, sink)`` unknowns; guards apply to source and sink
    respectively, exactly as in the reference analyzer.
    """

    particular: tuple[LinExpr, ...]
    basis: tuple[tuple[int, ...], ...]
    variable: str
    box: tuple[tuple[LinExpr, LinExpr], ...]
    write_guard: Condition
    read_guard: Condition
    zeros: tuple[LinExpr, ...] = field(default=())

    def instances(self, binding: ParamBinding) -> Iterable:
        from repro.depanalysis.diophantine import bounded_lattice_points

        if any(z.evaluate(binding) != 0 for z in self.zeros):
            return
        n = len(self.particular) // 2
        particular = [e.evaluate(binding) for e in self.particular]
        box = [
            (lo.evaluate(binding), hi.evaluate(binding))
            for lo, hi in self.box
        ]
        basis = [list(row) for row in self.basis]
        for z in bounded_lattice_points(particular, basis, box):
            src, snk = tuple(z[:n]), tuple(z[n:])
            if src == snk:
                continue
            if not self.write_guard.holds(src, binding):
                continue
            if not self.read_guard.holds(snk, binding):
                continue
            vec = tuple(s - t for s, t in zip(snk, src))
            yield DependenceInstance(snk, vec, self.variable, lex_kind(vec))
