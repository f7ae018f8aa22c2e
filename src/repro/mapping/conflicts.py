"""Computational-conflict detection (condition 3 of Definition 4.1).

Two distinct index points ``j̄₁ ≠ j̄₂`` with ``T j̄₁ = T j̄₂`` would execute
on the same processor at the same time.  The check here is exact and comes
in two flavors:

* a *lattice* check: enumerate the integer nullspace of ``T`` inside the
  difference box of the index set -- any nonzero point is a conflict
  direction (this is binding-parametric only through the box); exact for
  box index sets;
* a *certificate* producer: return concrete colliding pairs by hashing
  ``T j̄`` over the enumerated index set; exact for any index set,
  exponential in the instance size.

:func:`find_conflicts` is the single entry point: it dispatches to the
lattice check for plain box index sets and to exact pair enumeration for
affine-constrained ones (where a lattice direction may fit the bounding box
but not the actual domain).
"""

from __future__ import annotations

from repro.depanalysis.diophantine import UnboundedLatticeError, bounded_lattice_points
from repro.mapping.memo import EvalCache
from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet
from repro.structures.params import ParamBinding
from repro.util.linalg import integer_nullspace

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

    An empty list means ``τ`` is injective on ``J``.  ``limit`` bounds the
    number of witnesses returned (``None`` = all); ``cache``, when given,
    memoizes the enumeration on a canonicalized key -- the nullspace basis
    and difference box for the lattice check, the instantiated domain for
    the pair check -- so equivalent queries across candidate mappings are
    answered once.
    """
    if getattr(index_set, "is_constrained", False):
        if cache is None:
            return enumerate_conflict_pairs(t, index_set, binding, limit=limit)
        key = (
            "pairs",
            t.rows,
            tuple(index_set.bounds(binding)),
            getattr(index_set, "constraints", ()),
            limit,
        )
        return cache.get_or_compute(
            key,
            lambda: enumerate_conflict_pairs(t, index_set, binding, limit=limit),
        )
    return _lattice_directions(t, index_set, binding, limit, cache)


def _lattice_directions(
    t: MappingMatrix,
    index_set: IndexSet,
    binding: ParamBinding,
    limit: int | None,
    cache: EvalCache | None,
) -> list[tuple[int, ...]]:
    """The lattice flavor: nullspace directions inside the difference box."""
    nullspace = integer_nullspace([list(r) for r in t.rows])
    if not nullspace:
        return []
    bounds = index_set.bounds(binding)
    diff_box = tuple((lo - hi, hi - lo) for lo, hi in bounds)

    def compute() -> list[tuple]:
        try:
            return _enumerate_directions(nullspace, diff_box, t.n, limit)
        except UnboundedLatticeError:
            # Defensive: the difference box is bounded and the nullspace
            # basis is linearly independent, so the coefficient polytope is
            # bounded and enumeration should always succeed.  Should the
            # bounding machinery still give up, fall back to exact pair
            # enumeration rather than guessing (returning unverified basis
            # vectors here once caused false conflict reports on clean
            # mappings).
            return enumerate_conflict_pairs(t, index_set, binding, limit=limit)

    if cache is None:
        return compute()
    key = (
        "lattice",
        tuple(tuple(int(x) for x in vec) for vec in nullspace),
        diff_box,
        limit,
    )
    return cache.get_or_compute(key, compute)


def _enumerate_directions(
    nullspace: list[list[int]],
    diff_box: tuple[tuple[int, int], ...],
    n: int,
    limit: int | None,
) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for vec in bounded_lattice_points([0] * n, nullspace, list(diff_box)):
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
