"""Dependence instances and analysis results.

A :class:`DependenceInstance` is one concrete dependence pair
``(j̄, d̄ = j̄ - j̄')``: iteration ``j̄`` (the *sink*) uses a value produced by
iteration ``j̄' = j̄ - d̄`` (the *source*), through variable ``variable``.

An :class:`AnalysisResult` aggregates all instances found for a program on a
concrete parameter binding, as one sorted integer row table; its distinct
vectors are the columns of the paper's dependence matrix.  Its instances
become :class:`DependenceInstance` objects only when something iterates or
indexes them.  A :class:`PointSet` is an extensional validity domain, a
finite set of concrete points.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Sequence
from typing import Iterable

import numpy as np

from repro.structures.conditions import Condition
from repro.structures.params import ParamBinding

__all__ = [
    "AnalysisResult",
    "DependenceInstance",
    "InstanceView",
    "PointSet",
    "check_int64",
]

_INT64 = np.iinfo(np.int64)


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
    """All dependences of a program instance, as one sorted row table.

    Row ``r`` of :attr:`rows` (an ``int64`` array) is one instance: the
    sink's coordinates, then the indices of its distance vector,
    variable and kind in :attr:`vectors`, :attr:`variables` and
    :attr:`kinds`.  Those three tuples are sorted, duplicate-free, and
    every entry is used by some row, so lexicographic row order is
    :meth:`DependenceInstance.key` order; the rows are sorted and
    distinct.  ``len``, :meth:`distinct_vectors`,
    :meth:`vectors_by_variable` and :attr:`stats` come from the table;
    :attr:`instances` is a read-only sequence view that builds a
    :class:`DependenceInstance` only for the rows iterated or indexed.

    The constructor takes a table already in that form (a decoded cache
    entry); :meth:`from_instances` builds one.  ``stats["instances"]`` is
    always the row count.
    """

    __slots__ = ("rows", "vectors", "variables", "kinds", "stats")

    def __init__(
        self,
        rows: np.ndarray,
        vectors: tuple[tuple[int, ...], ...],
        variables: tuple[str, ...],
        kinds: tuple[str, ...],
        stats: dict | None = None,
    ):
        rows.flags.writeable = False
        self.rows = rows
        self.vectors = vectors
        self.variables = variables
        self.kinds = kinds
        #: analyzer bookkeeping: systems solved, candidates enumerated, etc.
        self.stats: dict = dict(stats or {})
        self.stats["instances"] = len(rows)

    @classmethod
    def from_instances(
        cls,
        instances: Iterable[DependenceInstance] = (),
        stats: dict | None = None,
        blocks: Iterable[tuple] = (),
    ) -> "AnalysisResult":
        """The sorted, duplicate-free table of ``instances`` and ``blocks``.

        A block is ``(sinks, vector, variable, kind)``: an ``(m, n)``
        ``int64`` array of sinks sharing one distance vector, variable
        and kind.  A sink coordinate outside ``int64`` raises a
        ``ValueError`` naming it.
        """
        groups: dict[tuple, list[tuple[int, ...]]] = defaultdict(list)
        for inst in instances:
            groups[inst.vector, inst.variable, inst.kind].append(inst.sink)
        blocks = [b for b in blocks if len(b[0])] + [
            (_sink_array(sinks), *key) for key, sinks in groups.items()
        ]
        if not blocks:
            return cls(np.zeros((0, 3), np.int64), (), (), (), stats)
        vectors = tuple(sorted({b[1] for b in blocks}))
        variables = tuple(sorted({b[2] for b in blocks}))
        kinds = tuple(sorted({b[3] for b in blocks}))
        at_vector = {v: i for i, v in enumerate(vectors)}
        at_variable = {v: i for i, v in enumerate(variables)}
        at_kind = {k: i for i, k in enumerate(kinds)}
        rows = np.concatenate([
            np.hstack([sinks, np.broadcast_to(
                np.array([at_vector[vec], at_variable[var], at_kind[kind]],
                         np.int64),
                (len(sinks), 3),
            )])
            for sinks, vec, var, kind in blocks
        ])
        rows = rows[np.lexsort(rows.T[::-1])]
        keep = np.ones(len(rows), bool)
        keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return cls(rows[keep], vectors, variables, kinds, stats)

    @property
    def instances(self) -> "InstanceView":
        """The instances in ``key()`` order, as a read-only sequence."""
        return InstanceView(self)

    def distinct_vectors(self) -> list[tuple[int, ...]]:
        """Sorted distinct dependence vectors found."""
        return list(self.vectors)

    def key_counts(self) -> dict[tuple, int]:
        """Instance counts per ``(vector, variable, kind)``, sorted."""
        n = self.rows.shape[1] - 3
        codes = self.rows[:, n]
        for column, size in ((n + 1, len(self.variables)),
                             (n + 2, len(self.kinds))):
            codes = codes * size + self.rows[:, column]
        keys, counts = np.unique(codes, return_counts=True)
        out = {}
        for code, count in zip(keys.tolist(), counts.tolist()):
            code, k = divmod(code, len(self.kinds))
            v, a = divmod(code, len(self.variables))
            out[self.vectors[v], self.variables[a], self.kinds[k]] = count
        return out

    def vectors_by_variable(self) -> dict[str, set[tuple[int, ...]]]:
        """Distinct vectors grouped by the variable that causes them."""
        out: dict[str, set[tuple[int, ...]]] = defaultdict(set)
        for vector, variable, _kind in self.key_counts():
            out[variable].add(vector)
        return dict(out)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"AnalysisResult({len(self.rows)} instances, "
            f"{len(self.vectors)} distinct vectors)"
        )


class InstanceView(Sequence):
    """Read-only sequence of an :class:`AnalysisResult`'s instances.

    Iterating or indexing (negative indices and slices too) builds the
    :class:`DependenceInstance` of each row it reaches, with Python
    ``int`` values; ``tuple(view)`` is the whole ordered instance list.
    """

    __slots__ = ("_result",)

    def __init__(self, result: AnalysisResult):
        self._result = result

    def _instance(self, row: list[int]) -> DependenceInstance:
        result = self._result
        n = len(row) - 3
        return DependenceInstance(
            row[:n], result.vectors[row[n]], result.variables[row[n + 1]],
            result.kinds[row[n + 2]],
        )

    def __len__(self) -> int:
        return len(self._result.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self[i] for i in range(*index.indices(len(self)))
            )
        return self._instance(self._result.rows[index].tolist())

    def __iter__(self) -> Iterator[DependenceInstance]:
        for row in self._result.rows.tolist():
            yield self._instance(row)


def check_int64(value: int) -> int:
    """``value``, when it fits an ``int64`` table cell; else a
    ``ValueError`` naming it (a table never wraps)."""
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(
            f"coordinate {value} is outside the int64 range of an "
            f"analysis table"
        )
    return value


def _sink_array(sinks: list[tuple[int, ...]]) -> np.ndarray:
    try:
        return np.array(sinks, np.int64)
    except OverflowError:
        for sink in sinks:
            for x in sink:
                check_int64(x)
        raise
