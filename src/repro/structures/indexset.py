"""Parametric rectangular index sets (iteration spaces).

Every algorithm in the paper iterates over an integer box
``J = { j̄ : l_i <= j_i <= u_i }`` whose bounds may involve the symbolic
parameters ``p`` (word length) and ``u`` (problem size).  :class:`IndexSet`
stores the bounds symbolically, supports Cartesian products (used by Theorem
3.1: the bit-level index set is ``J_w x J_as``), membership tests, exact
enumeration after parameter instantiation, and cardinality.
:func:`box_lattice` is the same enumeration as one integer array, for the
vectorized callers.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from repro.structures.params import LinExpr, ParamBinding, as_linexpr

__all__ = ["IndexSet", "box_lattice"]


def box_lattice(bounds: Sequence[tuple[int, int]]) -> np.ndarray:
    """All points of the integer box ``bounds`` (``(lo, hi)`` per axis) as
    one ``(N, n)`` int64 array, in the lexicographic order of
    :meth:`IndexSet.points`; an empty axis gives ``N = 0``."""
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
    if any(len(ax) == 0 for ax in axes):
        return np.zeros((0, len(axes)), dtype=np.int64)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


class IndexSet:
    """An ``n``-dimensional integer box with symbolic bounds.

    Parameters
    ----------
    lowers, uppers:
        Sequences of per-axis inclusive bounds; each entry is an ``int`` or a
        :class:`~repro.structures.params.LinExpr`.
    names:
        Optional axis names (e.g. ``("j1", "j2", "j3", "i1", "i2")``); used
        only for display.
    """

    __slots__ = ("lowers", "uppers", "names")

    def __init__(
        self,
        lowers: Sequence[LinExpr | int],
        uppers: Sequence[LinExpr | int],
        names: Sequence[str] | None = None,
    ):
        if len(lowers) != len(uppers):
            raise ValueError("lowers and uppers must have equal length")
        self.lowers: tuple[LinExpr, ...] = tuple(as_linexpr(b) for b in lowers)
        self.uppers: tuple[LinExpr, ...] = tuple(as_linexpr(b) for b in uppers)
        if names is None:
            names = tuple(f"j{i + 1}" for i in range(len(lowers)))
        if len(names) != len(lowers):
            raise ValueError("names length mismatch")
        self.names: tuple[str, ...] = tuple(names)

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def cube(dim: int, upper: LinExpr | int, lower: LinExpr | int = 1) -> "IndexSet":
        """The box ``{ j̄ : lower <= j_i <= upper }`` in ``dim`` dimensions."""
        return IndexSet([lower] * dim, [upper] * dim)

    def product(self, other: "IndexSet") -> "IndexSet":
        """Cartesian product ``self x other`` (Theorem 3.1's ``J_w x J_as``)."""
        return IndexSet(
            self.lowers + other.lowers,
            self.uppers + other.uppers,
            self.names + other.names,
        )

    def rename(self, names: Sequence[str]) -> "IndexSet":
        """Return a copy with new axis names."""
        return IndexSet(self.lowers, self.uppers, names)

    # -- queries ----------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of axes (the algorithm dimension ``n``)."""
        return len(self.lowers)

    def params(self) -> frozenset[str]:
        """All symbolic parameters mentioned by any bound."""
        out: frozenset[str] = frozenset()
        for b in self.lowers + self.uppers:
            out |= b.params()
        return out

    def bounds(self, binding: ParamBinding) -> list[tuple[int, int]]:
        """Concrete per-axis ``(lower, upper)`` bounds under ``binding``."""
        return [
            (lo.evaluate(binding), hi.evaluate(binding))
            for lo, hi in zip(self.lowers, self.uppers)
        ]

    def contains(self, point: Sequence[int], binding: ParamBinding) -> bool:
        """Membership test for a concrete point under ``binding``."""
        if len(point) != self.dim:
            return False
        for x, (lo, hi) in zip(point, self.bounds(binding)):
            if not lo <= x <= hi:
                return False
        return True

    def size(self, binding: ParamBinding) -> int:
        """Number of integer points (``0`` if any axis is empty)."""
        total = 1
        for lo, hi in self.bounds(binding):
            if hi < lo:
                return 0
            total *= hi - lo + 1
        return total

    def points(self, binding: ParamBinding) -> Iterator[tuple[int, ...]]:
        """Iterate over all integer points in lexicographic order."""
        ranges = [range(lo, hi + 1) for lo, hi in self.bounds(binding)]
        return itertools.product(*ranges)

    def corner_min(self, binding: ParamBinding) -> tuple[int, ...]:
        """The lexicographically smallest corner (all lower bounds)."""
        return tuple(lo.evaluate(binding) for lo in self.lowers)

    def corner_max(self, binding: ParamBinding) -> tuple[int, ...]:
        """The corner of all upper bounds."""
        return tuple(hi.evaluate(binding) for hi in self.uppers)

    # -- equality / display -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self.lowers == other.lowers and self.uppers == other.uppers

    def __hash__(self) -> int:
        return hash((self.lowers, self.uppers))

    def __repr__(self) -> str:
        parts = [
            f"{lo} <= {name} <= {hi}"
            for name, lo, hi in zip(self.names, self.lowers, self.uppers)
        ]
        return "IndexSet{" + ", ".join(parts) + "}"
