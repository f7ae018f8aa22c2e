"""Dependence instances and analysis results.

A :class:`DependenceInstance` is one concrete dependence pair
``(j̄, d̄ = j̄ - j̄')``: iteration ``j̄`` (the *sink*) uses a value produced by
iteration ``j̄' = j̄ - d̄`` (the *source*), through variable ``variable``.

An :class:`AnalysisResult` aggregates all instances found for a program on a
concrete parameter binding; its distinct vectors are the columns of the
paper's dependence matrix.  A :class:`PointSet` is an extensional validity
domain, a finite set of concrete points.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.structures.conditions import Condition
from repro.structures.params import ParamBinding

__all__ = ["DependenceInstance", "PointSet", "AnalysisResult"]


class PointSet(Condition):
    """An extensional validity condition: a finite set of concrete points.

    ``offset`` re-axes the set the way ``Eq.shift_axes`` re-axes an
    intensional condition: a set recorded over axes ``0..w-1`` shifted by
    ``k`` holds at a point of a wider space iff the slice
    ``point[k : k + w]`` is a member.  This is what lets extensional
    validity domains survive :meth:`DependenceVector.prefixed` when a
    word-level matrix is embedded into a product index set.
    """

    __slots__ = ("points", "offset", "_width")

    def __init__(self, points: Iterable[Sequence[int]], offset: int = 0):
        self.points = frozenset(tuple(int(x) for x in pt) for pt in points)
        if offset < 0:
            raise ValueError(f"negative axis offset {offset}")
        self.offset = int(offset)
        widths = {len(pt) for pt in self.points}
        if len(widths) > 1:
            raise ValueError(f"mixed point widths {sorted(widths)}")
        self._width = widths.pop() if widths else 0

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        if not self.points:
            return False
        probe = tuple(point)
        if self.offset:
            probe = probe[self.offset:self.offset + self._width]
        return probe in self.points

    def shift_axes(self, offset: int) -> Condition:
        return PointSet(self.points, offset=self.offset + offset)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointSet)
            and self.points == other.points
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.points, self.offset))

    def __repr__(self) -> str:
        suffix = f", offset={self.offset}" if self.offset else ""
        if len(self.points) <= 4:
            return f"PointSet({sorted(self.points)}{suffix})"
        return f"PointSet(<{len(self.points)} points>{suffix})"


class DependenceInstance:
    """One dependence pair ``(sink, vector)`` through ``variable``."""

    __slots__ = ("sink", "vector", "variable", "kind")

    def __init__(
        self,
        sink: Sequence[int],
        vector: Sequence[int],
        variable: str,
        kind: str = "flow",
    ):
        self.sink = tuple(int(x) for x in sink)
        self.vector = tuple(int(x) for x in vector)
        self.variable = variable
        self.kind = kind

    @property
    def source(self) -> tuple[int, ...]:
        """The iteration that produced the value (``sink - vector``)."""
        return tuple(s - d for s, d in zip(self.sink, self.vector))

    def key(self) -> tuple:
        return (self.sink, self.vector, self.variable, self.kind)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DependenceInstance) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"{self.kind}({self.variable}): {list(self.source)} -> {list(self.sink)}"
            f" d̄={list(self.vector)}"
        )


class AnalysisResult:
    """All dependences of a program instance, with matrix distillation."""

    __slots__ = ("instances", "stats")

    def __init__(
        self,
        instances: Iterable[DependenceInstance],
        stats: dict | None = None,
    ):
        self.instances: tuple[DependenceInstance, ...] = tuple(instances)
        #: analyzer bookkeeping: systems solved, candidates enumerated, etc.
        self.stats: dict = stats or {}

    def distinct_vectors(self) -> list[tuple[int, ...]]:
        """Sorted distinct dependence vectors found."""
        return sorted({inst.vector for inst in self.instances})

    def vectors_by_variable(self) -> dict[str, set[tuple[int, ...]]]:
        """Distinct vectors grouped by the variable that causes them."""
        out: dict[str, set[tuple[int, ...]]] = defaultdict(set)
        for inst in self.instances:
            out[inst.variable].add(inst.vector)
        return dict(out)

    def __len__(self) -> int:
        return len(self.instances)

    def __repr__(self) -> str:
        return (
            f"AnalysisResult({len(self.instances)} instances, "
            f"{len(self.distinct_vectors())} distinct vectors)"
        )
