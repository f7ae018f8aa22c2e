"""Computational-conflict detection (condition 3 of Definition 4.1).

Two distinct index points ``j̄₁ ≠ j̄₂`` with ``T j̄₁ = T j̄₂`` would execute
on the same processor at the same time.  The check here is exact and comes
in two flavors:

* a *lattice* check: a nonzero point of the integer nullspace lattice of
  ``T`` inside the difference box ``J − J`` of the index set is a
  conflict direction (this is binding-parametric only through the box);
  exact for box index sets.  The lattice comes as a reduced basis
  (:meth:`~repro.mapping.transform.MappingMatrix.nullspace`), whose short
  vectors usually show a conflict without enumeration; enumerating the
  box's lattice points proves conflict-freedom;
* a *certificate* producer: return concrete colliding pairs by hashing
  ``T j̄`` over the enumerated index set; exact for any index set,
  exponential in the instance size.

:func:`find_conflicts` is the single entry point, and the one condition-3
test of the package: the search solver's screen, ``check_feasibility`` and
the compiled backend's schedule plans all call it.  It dispatches to the
lattice check for plain box index sets and to exact pair enumeration for
affine-constrained ones (where a lattice direction may fit the bounding box
but not the actual domain).
"""

from __future__ import annotations

from operator import le

from repro.depanalysis.diophantine import UnboundedLatticeError, bounded_lattice_points
from repro.mapping.memo import EvalCache
from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet
from repro.structures.params import ParamBinding

__all__ = [
    "is_conflict_free",
    "find_conflicts",
    "enumerate_conflict_pairs",
]


def find_conflicts(
    t: MappingMatrix,
    index_set: IndexSet,
    binding: ParamBinding,
    limit: int | None = None,
    *,
    cache: EvalCache | None = None,
) -> list[tuple]:
    """Conflict witnesses for ``T`` on the instantiated index set.

    Dispatches internally on the index-set shape:

    * plain boxes use the lattice check and return conflict *directions*
      ``δ̄`` (nonzero integer vectors with ``T δ̄ = 0`` fitting the
      difference box; each is a whole family of conflicts);
    * affine-constrained sets (``is_constrained``) use exact enumeration
      and return concrete colliding *pairs* ``(j̄₁, j̄₂)``.

    An empty list means ``τ`` is injective on ``J``, and only enumeration
    returns one.  ``limit`` bounds the number of witnesses returned
    (``None`` = all).  With ``limit=1`` on a box, a vector of ``T``'s
    reduced nullspace basis (:meth:`MappingMatrix.nullspace`) that fits the
    difference box is returned before any enumeration; the reduced basis
    carries the lattice's short vectors, so a conflicting ``T`` is usually
    answered there.  ``cache``, when given, memoizes the enumeration on a
    canonicalized key -- the nullspace basis and difference box for the
    lattice check, the instantiated domain for the pair check -- so
    equivalent queries across candidate mappings are answered once, under
    any ``limit`` the stored answer covers
    (:meth:`~repro.mapping.memo.EvalCache.get_witnesses`).  It also keeps
    the last instantiated bounds, so a search walk evaluates them once.
    """
    bounds, widths = _instantiate(index_set, binding, cache)
    if getattr(index_set, "is_constrained", False):
        def pairs(lim: int | None) -> list[tuple]:
            return enumerate_conflict_pairs(t, index_set, binding, limit=lim)

        if cache is None:
            return pairs(limit)
        key = ("pairs", t.rows, bounds, index_set.constraints)
        return cache.get_witnesses(key, limit, pairs)
    return _lattice_directions(t, index_set, binding, widths, limit, cache)


def _instantiate(
    index_set: IndexSet, binding: ParamBinding, cache: EvalCache | None
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """``J``'s bounds at ``binding`` and their widths ``w_i = hi_i − lo_i``
    (the difference box ``J − J`` is ``Π [−w_i, w_i]``), reused from
    ``cache`` when it last instantiated the same index set at an equal
    binding."""
    last = cache.box if cache is not None else None
    if last is not None and last[0] is index_set and last[1] == binding:
        return last[2], last[3]
    bounds = tuple(index_set.bounds(binding))
    widths = tuple(hi - lo for lo, hi in bounds)
    if cache is not None:
        cache.box = (index_set, dict(binding), bounds, widths)
    return bounds, widths


def _lattice_directions(
    t: MappingMatrix,
    index_set: IndexSet,
    binding: ParamBinding,
    widths: tuple[int, ...],
    limit: int | None,
    cache: EvalCache | None,
) -> list[tuple]:
    """The lattice flavor: nullspace directions inside the difference box
    ``Π [−w_i, w_i]``."""
    nullspace = t.nullspace()
    if not nullspace:
        return []
    if limit == 1:
        for vec in nullspace:
            if all(map(le, map(abs, vec), widths)):
                return [vec]

    def compute(lim: int | None) -> list[tuple]:
        diff_box = [(-w, w) for w in widths]
        try:
            return _enumerate_directions(nullspace, diff_box, t.n, lim)
        except UnboundedLatticeError:
            # Defensive: the difference box is bounded and the nullspace
            # basis is linearly independent, so the coefficient polytope is
            # bounded and enumeration should always succeed.  Should the
            # bounding machinery still give up, fall back to exact pair
            # enumeration rather than guessing (returning unverified basis
            # vectors here once caused false conflict reports on clean
            # mappings).
            return enumerate_conflict_pairs(t, index_set, binding, limit=lim)

    if cache is None:
        return compute(limit)
    return cache.get_witnesses(("lattice", nullspace, widths), limit, compute)


def _enumerate_directions(
    nullspace: tuple[tuple[int, ...], ...],
    diff_box: list[tuple[int, int]],
    n: int,
    limit: int | None,
) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for vec in bounded_lattice_points([0] * n, nullspace, diff_box):
        if any(vec):
            out.append(tuple(vec))
            if limit is not None and len(out) >= limit:
                break
    return out


def is_conflict_free(
    t: MappingMatrix, index_set: IndexSet, binding: ParamBinding
) -> bool:
    """True when ``τ`` is injective on the instantiated index set."""
    return not find_conflicts(t, index_set, binding, limit=1)


def enumerate_conflict_pairs(
    t: MappingMatrix,
    index_set: IndexSet,
    binding: ParamBinding,
    limit: int | None = 10,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Concrete colliding index-point pairs (up to ``limit``), by hashing
    ``T j̄`` over the enumerated index set.  Useful for error messages and
    exact on any index-set shape, at enumeration cost."""
    seen: dict[tuple, tuple[int, ...]] = {}
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for point in index_set.points(binding):
        image = (t.processor_of(point), t.time_of(point))
        if image in seen:
            out.append((seen[image], point))
            if limit is not None and len(out) >= limit:
                break
        else:
            seen[image] = point
    return out
