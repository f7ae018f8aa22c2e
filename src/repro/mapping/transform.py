"""The linear algorithm transformation ``τ(j̄) = T j̄``.

Definition 4.1: a ``k x n`` integer matrix ``T = [S; Π]`` maps an
``n``-dimensional algorithm onto a ``(k-1)``-dimensional processor array --
the computation indexed by ``j̄`` executes at *time* ``Π j̄`` (last row) on
*processor* ``S j̄`` (first ``k-1`` rows).
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

from repro.structures.params import ParamBinding
from repro.util.intmath import gcd_list
from repro.util.linalg import integer_rank, mat_vec

__all__ = ["MappingMatrix"]


class MappingMatrix:
    """``T = [S; Π]`` with the space map ``S`` and linear schedule ``Π``."""

    __slots__ = ("rows", "name", "_np_schedule", "_np_space")

    def __init__(self, rows: Sequence[Sequence[int]], name: str = "T"):
        self.rows: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(x) for x in row) for row in rows
        )
        if len(self.rows) < 1:
            raise ValueError("mapping matrix needs at least the schedule row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged mapping matrix")
        self.name = name
        self._np_schedule = None  # lazy numpy views, built on first batch call
        self._np_space = None

    # -- structure -----------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of rows (the algorithm maps to a ``(k-1)``-D array)."""
        return len(self.rows)

    @property
    def n(self) -> int:
        """Number of columns (the algorithm dimension)."""
        return len(self.rows[0])

    @property
    def space(self) -> list[list[int]]:
        """The space mapping matrix ``S`` (first ``k-1`` rows)."""
        return [list(r) for r in self.rows[:-1]]

    @property
    def schedule(self) -> list[int]:
        """The linear schedule vector ``Π`` (last row)."""
        return list(self.rows[-1])

    # -- application -----------------------------------------------------------
    def time_of(self, point: Sequence[int]) -> int:
        """Execution time ``Π j̄`` of the computation at ``point``."""
        return sum(c * x for c, x in zip(self.rows[-1], point))

    def processor_of(self, point: Sequence[int]) -> tuple[int, ...]:
        """Processor coordinates ``S j̄`` of the computation at ``point``."""
        return tuple(sum(c * x for c, x in zip(row, point)) for row in self.rows[:-1])

    def apply(self, point: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """``(processor, time)`` of a computation."""
        return self.processor_of(point), self.time_of(point)

    # -- batch application ------------------------------------------------------
    def times_of(self, points):
        """``Π j̄`` for a whole block of points in one shot.

        ``points`` is an ``(N, n)`` array-like (sequence of points or a
        NumPy array).  Returns an ``int64`` ndarray of length ``N`` whose
        ``k``-th entry equals ``time_of(points[k])``.
        """
        if self._np_schedule is None:
            self._np_schedule = _np.asarray(self.rows[-1], dtype=_np.int64)
        block = _np.asarray(points, dtype=_np.int64)
        if block.size == 0:  # empty index sets batch to empty results
            return _np.zeros(0, dtype=_np.int64)
        if block.ndim == 1:  # a single point: keep shape conventions tight
            block = block.reshape(1, -1)
        return block @ self._np_schedule

    def processors_of(self, points):
        """``S j̄`` for a whole block of points in one shot.

        Returns an ``(N, k-1)`` ``int64`` ndarray; row ``k`` equals
        ``processor_of(points[k])``.
        """
        if self._np_space is None:
            self._np_space = _np.asarray(
                [list(r) for r in self.rows[:-1]], dtype=_np.int64
            ).reshape(len(self.rows) - 1, self.n)
        block = _np.asarray(points, dtype=_np.int64)
        if block.size == 0:
            return _np.zeros((0, len(self.rows) - 1), dtype=_np.int64)
        if block.ndim == 1:
            block = block.reshape(1, -1)
        return block @ self._np_space.T

    def map_vector(self, vector: Sequence[int]) -> list[int]:
        """``T d̄``: the space-time displacement of a dependence vector."""
        return mat_vec([list(r) for r in self.rows], list(vector))

    # -- simple structural predicates -----------------------------------------
    def rank(self) -> int:
        """Rank of ``T`` over the rationals (condition 4 needs ``rank = k``)."""
        return integer_rank([list(r) for r in self.rows])

    def entries_coprime(self) -> bool:
        """Condition 5: the gcd of all entries of ``T`` is 1."""
        return gcd_list(x for row in self.rows for x in row) == 1

    def instantiate(self, binding: ParamBinding) -> "MappingMatrix":
        """Identity hook for symmetry with parametric structures.

        Mapping matrices in this library are concrete; designs parametric in
        ``p`` are produced by factory functions in
        :mod:`repro.mapping.designs` which take the parameters directly.
        """
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(f"{x:3d}" for x in row) for row in self.rows)
        return f"MappingMatrix {self.name} [{body}]"
