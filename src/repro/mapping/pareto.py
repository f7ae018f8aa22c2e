"""Pareto-frontier ranking over design metrics.

The search historically returned a single ranked list keyed on
``(time, processors)`` -- a total order that hides every trade-off the
paper itself discusses (Fig. 4 vs Fig. 5 trade wire length against
buffers).  This module replaces the single optimum with the set of
*non-dominated* designs over the three architecture metrics:

* ``time`` -- the makespan of the design's schedule (eq. (4.5));
* ``processors`` -- the PE count of the projected array;
* ``wire_length`` -- the longest physical link the design needs
  (:func:`design_wire_length`).

All metrics are exact integers, dominance is the standard product order
(no worse everywhere, strictly better somewhere), and every function here
is deterministic: frontiers are returned sorted by ``(metrics, rows)``, so
two runs produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "METRIC_NAMES",
    "FrontierPoint",
    "design_wire_length",
    "dominates",
    "pareto_frontier",
]

#: The metric axes a frontier may rank over, in canonical order.
METRIC_NAMES = ("time", "processors", "wire_length")


def design_wire_length(
    interconnect,
    space: Sequence[Sequence[int]],
    d_cols: Sequence[Sequence[int]],
) -> int:
    """The longest physical link of a design, as an exact integer.

    With an :class:`~repro.mapping.interconnect.InterconnectSolution`, the
    wire length is the largest L1 (Manhattan) length among the primitive
    columns the design actually uses (``k_ji > 0`` for some dependence
    ``i``); unused primitives cost nothing.  Without primitives (the
    unconstrained target), every dependence needs a direct link for its
    displacement ``S d̄_i``, so the metric is the largest L1 length of
    those displacements.  Either way the value is 0 for dependence-free
    algorithms and deterministic for a given design.
    """
    if interconnect is not None:
        longest = 0
        p_matrix = interconnect.p_matrix
        k_matrix = interconnect.k_matrix
        rows = len(p_matrix)
        for j, k_row in enumerate(k_matrix):
            if any(k > 0 for k in k_row):
                length = sum(abs(p_matrix[i][j]) for i in range(rows))
                longest = max(longest, length)
        return longest
    longest = 0
    for col in d_cols:
        length = sum(
            abs(sum(row[i] * col[i] for i in range(len(col))))
            for row in space
        )
        longest = max(longest, length)
    return longest


@dataclass(frozen=True)
class FrontierPoint:
    """One design on (or competing for) a Pareto frontier.

    ``metrics`` holds the selected metric values in the order the frontier
    was configured with; ``rows`` is the canonical ``T`` (tuple of row
    tuples), which doubles as the deterministic tie-break -- two points
    with equal metrics are both non-dominated and are ordered by ``rows``.
    """

    metrics: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def sort_key(self) -> tuple:
        return (self.metrics, self.rows)


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Product-order dominance: ``a`` no worse everywhere, better somewhere.

    Irreflexive and antisymmetric (equal vectors dominate neither way),
    and transitive -- the properties the frontier computation relies on,
    pinned by tests on random metric triples.
    """
    if len(a) != len(b):
        raise ValueError("metric vectors must have equal length")
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_frontier(points: Iterable[FrontierPoint]) -> list[FrontierPoint]:
    """The non-dominated subset, deduplicated and canonically ordered.

    A point is kept iff no other point dominates its metric vector.
    Points with identical metrics but different ``rows`` are all kept
    (they are genuinely incomparable designs); exact duplicates collapse.
    The result is sorted by ``(metrics, rows)`` -- the deterministic
    tie-break that makes frontiers byte-comparable across runs.
    """
    unique = sorted(set(points), key=lambda pt: pt.sort_key)
    out = []
    for pt in unique:
        if not any(
            dominates(other.metrics, pt.metrics)
            for other in unique
            if other is not pt
        ):
            out.append(pt)
    return out
