"""Affine-constrained index sets (triangular and trapezoidal domains).

The paper's motivating list includes LU decomposition, whose iteration
space is a *triangular* prism (``k <= i, j``), not a box.
:class:`ConstrainedIndexSet` extends the box :class:`~repro.structures.
indexset.IndexSet` with affine inequality constraints
``Σ_k c_k·j_k + offset >= 0``; membership, enumeration and cardinality are
exact, while the inherited box bounds act as a (documented) bounding box.

Consumers that reason through the bounding box stay *safe* but may be
conservative; the ones where exactness matters are taught to detect the
``is_constrained`` flag and fall back to enumeration
(:func:`repro.mapping.schedule.execution_time`,
:func:`repro.mapping.conflicts.is_conflict_free`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.structures.indexset import IndexSet
from repro.structures.params import LinExpr, ParamBinding, as_linexpr

__all__ = ["AffineConstraint", "ConstrainedIndexSet"]


class AffineConstraint:
    """The half-space ``Σ_k coeffs[k]·j_k + offset >= 0``."""

    __slots__ = ("coeffs", "offset")

    def __init__(self, coeffs: Sequence[int], offset: LinExpr | int = 0):
        self.coeffs: tuple[int, ...] = tuple(int(c) for c in coeffs)
        self.offset: LinExpr = as_linexpr(offset)

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        total = self.offset.evaluate(binding)
        for c, x in zip(self.coeffs, point):
            total += c * x
        return total >= 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineConstraint):
            return NotImplemented
        return self.coeffs == other.coeffs and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.coeffs, self.offset))

    def __repr__(self) -> str:
        terms = [
            f"{c:+d}*j{k + 1}" for k, c in enumerate(self.coeffs) if c != 0
        ]
        expr = " ".join(terms) or "0"
        off = str(self.offset)
        return f"{expr} + {off} >= 0"


class ConstrainedIndexSet(IndexSet):
    """A box intersected with affine half-spaces."""

    __slots__ = ("constraints",)

    #: duck-typed marker consulted by exactness-sensitive consumers
    is_constrained = True

    def __init__(
        self,
        lowers: Sequence[LinExpr | int],
        uppers: Sequence[LinExpr | int],
        constraints: Sequence[AffineConstraint] = (),
        names: Sequence[str] | None = None,
    ):
        super().__init__(lowers, uppers, names)
        self.constraints: tuple[AffineConstraint, ...] = tuple(constraints)
        for c in self.constraints:
            if len(c.coeffs) != self.dim:
                raise ValueError(
                    f"constraint arity {len(c.coeffs)} does not match "
                    f"dimension {self.dim}"
                )

    # -- exact set semantics --------------------------------------------------
    def contains(self, point: Sequence[int], binding: ParamBinding) -> bool:
        if not super().contains(point, binding):
            return False
        return all(c.holds(point, binding) for c in self.constraints)

    def points(self, binding: ParamBinding) -> Iterator[tuple[int, ...]]:
        for point in super().points(binding):
            if all(c.holds(point, binding) for c in self.constraints):
                yield point

    def size(self, binding: ParamBinding) -> int:
        return sum(1 for _ in self.points(binding))

    # -- structure-preserving rebuilds -----------------------------------------
    def rename(self, names: Sequence[str]) -> "ConstrainedIndexSet":
        return ConstrainedIndexSet(
            self.lowers, self.uppers, self.constraints, names
        )

    def product(self, other: IndexSet) -> "ConstrainedIndexSet":
        """Cartesian product; constraints are padded to the joint space."""
        mine = [
            AffineConstraint(c.coeffs + (0,) * other.dim, c.offset)
            for c in self.constraints
        ]
        theirs = [
            AffineConstraint((0,) * self.dim + c.coeffs, c.offset)
            for c in getattr(other, "constraints", ())
        ]
        return ConstrainedIndexSet(
            self.lowers + other.lowers,
            self.uppers + other.uppers,
            mine + theirs,
            self.names + other.names,
        )

    # -- identity -----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstrainedIndexSet):
            if isinstance(other, IndexSet):
                return not self.constraints and super().__eq__(other)
            return NotImplemented
        return (
            super().__eq__(other)
            and set(self.constraints) == set(other.constraints)
        )

    def __hash__(self) -> int:
        return hash((self.lowers, self.uppers, frozenset(self.constraints)))

    def __repr__(self) -> str:
        base = super().__repr__()
        if not self.constraints:
            return base
        cons = "; ".join(map(repr, self.constraints))
        return base[:-1] + f" | {cons}}}"
