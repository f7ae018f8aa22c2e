"""Space-mapping geometry: processor counts and array extents.

The paper reports ``s = |{S q̄ : q̄ ∈ J}| = u²p²`` processors for the
design of Fig. 4 and ``(u·p)²`` for Fig. 5.  :func:`processor_count` computes
``|S(J)|`` exactly (vectorized over a box, by enumeration otherwise), and
:func:`space_extents` gives the bounding box of the processor array (its
physical footprint).
"""

from __future__ import annotations

import numpy as np

from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet
from repro.structures.params import ParamBinding

__all__ = ["processor_count", "space_extents", "processor_set"]


def processor_set(
    t: MappingMatrix, index_set: IndexSet, binding: ParamBinding
) -> set[tuple[int, ...]]:
    """The exact image ``{S q̄ : q̄ ∈ J}``."""
    return {t.processor_of(point) for point in index_set.points(binding)}


def processor_count(
    t: MappingMatrix, index_set: IndexSet, binding: ParamBinding
) -> int:
    """``|S(J)|`` -- the number of processors the design uses.

    A box is counted from one int64 product of ``S`` with its lattice and
    one ``np.unique`` over a linearized key.  A constrained index set, or
    a box whose key could overflow int64, counts :func:`processor_set`,
    the reference.
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
    if any(hi < lo for lo, hi in bounds):
        return 0
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    s_matrix = np.array(space, np.int64).reshape(len(space), len(axes))
    image = lattice.reshape(-1, len(axes)) @ s_matrix.T
    image -= image.min(axis=0)
    key = np.zeros(len(image), dtype=np.int64)
    for column, extent in zip(image.T, image.max(axis=0) + 1):
        key = key * extent + column
    return len(np.unique(key))


def space_extents(
    t: MappingMatrix, index_set: IndexSet, binding: ParamBinding
) -> list[tuple[int, int]]:
    """Per-dimension ``(min, max)`` processor coordinates (array footprint)."""
    procs = processor_set(t, index_set, binding)
    dims = len(next(iter(procs))) if procs else 0
    return [
        (min(pr[d] for pr in procs), max(pr[d] for pr in procs))
        for d in range(dims)
    ]
