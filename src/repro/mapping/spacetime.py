"""Space-mapping geometry: processor counts.

The paper reports ``s = |{S q̄ : q̄ ∈ J}| = u²p²`` processors for the
design of Fig. 4 and ``(u·p)²`` for Fig. 5.  :func:`processor_count`
computes ``|S(J)|`` exactly: from ``S`` and the bounds for a box, by
enumeration otherwise.
"""

from __future__ import annotations

from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet, image_census
from repro.structures.params import ParamBinding

__all__ = ["processor_count", "processor_set"]


def processor_set(
    t: MappingMatrix, index_set: IndexSet, binding: ParamBinding
) -> set[tuple[int, ...]]:
    """The exact image ``{S q̄ : q̄ ∈ J}``."""
    return {t.processor_of(point) for point in index_set.points(binding)}


def processor_count(
    t: MappingMatrix, index_set: IndexSet, binding: ParamBinding
) -> int:
    """``|S(J)|`` -- the number of processors the design uses.

    A box is counted by the image census of ``S``
    (:func:`~repro.structures.indexset.image_census`), without listing
    its points.  A constrained index set, or a box whose key could
    overflow int64, counts :func:`processor_set`, the reference.
    """
    bounds = index_set.bounds(binding)
    space = t.space
    key_range = 1
    for row in space:
        reach = sum(
            abs(s) * max(abs(lo), abs(hi)) for s, (lo, hi) in zip(row, bounds)
        )
        key_range *= 2 * reach + 1
    if getattr(index_set, "is_constrained", False) or key_range >= 1 << 62:
        return len(processor_set(t, index_set, binding))
    return len(image_census(space, bounds)[1])
