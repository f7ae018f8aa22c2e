"""Parametric rectangular index sets (iteration spaces).

Every algorithm in the paper iterates over an integer box
``J = { j̄ : l_i <= j_i <= u_i }`` whose bounds may involve the symbolic
parameters ``p`` (word length) and ``u`` (problem size).  :class:`IndexSet`
stores the bounds symbolically, supports Cartesian products (used by Theorem
3.1: the bit-level index set is ``J_w x J_as``), membership tests, exact
enumeration after parameter instantiation, and cardinality.
:func:`box_lattice` is the same enumeration as one integer array, for the
vectorized callers; :func:`image_census` counts the image ``R j̄`` of a box
under an integer matrix without that enumeration.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from repro.structures.params import LinExpr, ParamBinding, as_linexpr

__all__ = ["IndexSet", "box_lattice", "image_census"]


def box_lattice(bounds: Sequence[tuple[int, int]]) -> np.ndarray:
    """All points of the integer box ``bounds`` (``(lo, hi)`` per axis) as
    one ``(N, n)`` int64 array, in the lexicographic order of
    :meth:`IndexSet.points`; an empty axis gives ``N = 0``."""
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
    if any(len(ax) == 0 for ax in axes):
        return np.zeros((0, len(axes)), dtype=np.int64)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


#: A box and key range both of at most this many values are counted by
#: keying every listed point and binning the keys: the doubling merge pays
#: a fixed cost per axis and level (a handful of numpy calls) that exceeds
#: one pass over a box this small.
_LISTED_POINTS = 1 << 13


def image_census(
    rows: Sequence[Sequence[int]], bounds: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``R j̄`` over the integer box ``bounds`` and
    how many points map to each.

    ``R`` is given by its ``rows``.  Returns ``(values, counts)``: the
    ``(m, len(rows))`` int64 image in lexicographic order and the int64
    multiplicity of each value.  Values are keys of a mixed-radix int64
    numbering of the image's bounding box.  Unless the box and that key
    range both hold at most ``_LISTED_POINTS`` values, the box is not
    listed: starting from the empty sum, each axis ``a`` adds its
    arithmetic progression ``R[:, a]·j_a`` to every key and re-counts, so
    the work follows the image, not the box.  Otherwise the progressions
    are summed into one key per point and the keys binned.  Where the key
    range reaches ``2**62`` the enumerated box is counted instead.
    """
    rows = [[int(x) for x in row] for row in rows]
    if any(hi < lo for lo, hi in bounds):
        return np.zeros((0, len(rows)), np.int64), np.zeros(0, np.int64)
    lows = [
        sum(min(c * lo, c * hi) for c, (lo, hi) in zip(row, bounds))
        for row in rows
    ]
    spans = [
        sum(abs(c) * (hi - lo) for c, (lo, hi) in zip(row, bounds)) + 1
        for row in rows
    ]
    key_range = math.prod(spans)
    if key_range >= 1 << 62:
        matrix = np.array(rows, np.int64).reshape(len(rows), len(bounds))
        return np.unique(
            box_lattice(bounds) @ matrix.T, axis=0, return_counts=True
        )
    strides = [math.prod(spans[r + 1:]) for r in range(len(rows))]
    # Per axis: its first key offset, key step and length.  Each row's
    # term starts at 0 (its least value over the axis), so every partial
    # sum stays inside the image's bounding box.
    axes = [
        (
            sum(max(0, row[a] * (lo - hi)) * s for row, s in zip(rows, strides)),
            sum(row[a] * s for row, s in zip(rows, strides)),
            hi - lo + 1,
        )
        for a, (lo, hi) in enumerate(bounds)
    ]
    keys = np.zeros(1, np.int64)
    if max(key_range, math.prod(n for _, _, n in axes)) <= _LISTED_POINTS:
        for start, step, n in axes:
            keys = (keys[:, None] + (start + step * np.arange(n))).reshape(-1)
        counts = np.bincount(keys)
        keys = np.flatnonzero(counts)
        counts = counts[keys]
    else:
        counts = np.ones(1, np.int64)
        for start, step, n in axes:
            keys, counts = _add_progression(keys + start, counts, step, n)
    values = np.empty((len(keys), len(rows)), np.int64)
    for r, (low, span, stride) in enumerate(zip(lows, spans, strides)):
        values[:, r] = keys // stride % span + low
    return values, counts


def _add_progression(keys, counts, step, n):
    """The key multiset ``keys + {0, step, ..., (n-1)·step}``, re-counted.
    By doubling: the sum over the first ``n // 2`` terms, shifted by
    ``(n // 2)·step``, is the sum over the next ``n // 2``."""
    if n == 1:
        return keys, counts
    half = n // 2
    half_keys, half_counts = _add_progression(keys, counts, step, half)
    key_parts = [half_keys, half_keys + half * step]
    count_parts = [half_counts, half_counts]
    if n % 2:
        key_parts.append(keys + (n - 1) * step)
        count_parts.append(counts)
    keys, counts = np.concatenate(key_parts), np.concatenate(count_parts)
    # The parts are sorted runs, which a stable (merge) sort joins cheaply.
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(counts, starts)


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
