"""Absolute lower bounds on execution time.

Theorem 4.5 certifies ``T`` of eq. (4.2) optimal among *linear* schedules.
A stronger statement is available computationally: the **free schedule** --
every computation fires as soon as its operands exist -- needs exactly
``longest dependence chain + 1`` time units, and no schedule of any kind
can beat it.  :func:`critical_path_length` computes that chain exactly by
dynamic programming over the dependence dag, and
:func:`free_schedule_times` returns the earliest firing time of every
index point (the as-soon-as-possible schedule itself).

For the bit-level matmul structure, the measured critical path matches
``3(u-1) + 3(p-1)`` -- i.e. Fig. 4's linear schedule achieves the absolute
minimum, a sharper fact than the paper states.
"""

from __future__ import annotations

from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding

__all__ = ["critical_path_length", "free_schedule_times", "free_schedule_time"]


def free_schedule_times(
    algorithm: Algorithm, binding: ParamBinding
) -> dict[tuple[int, ...], int]:
    """Earliest firing time of each point (0-based), by longest-path DP.

    A point with no in-set predecessors fires at 0; otherwise one time unit
    after the latest of its predecessors.  Raises ``ValueError`` on a
    dependence cycle (which a well-formed algorithm cannot have).
    """
    index_set = algorithm.index_set
    deps = algorithm.dependences
    inside = set(index_set.points(binding))

    times: dict[tuple[int, ...], int] = {}
    in_progress: set[tuple[int, ...]] = set()

    def earliest(point: tuple[int, ...]) -> int:
        cached = times.get(point)
        if cached is not None:
            return cached
        if point in in_progress:
            raise ValueError(f"dependence cycle through {point}")
        in_progress.add(point)
        best = 0
        for vec in deps.valid_vectors_at(point, binding):
            src = tuple(a - b for a, b in zip(point, vec.vector))
            if src in inside:
                t = earliest(src) + 1
                if t > best:
                    best = t
        in_progress.discard(point)
        times[point] = best
        return best

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(inside) + 100))
    try:
        for point in inside:
            earliest(point)
    finally:
        sys.setrecursionlimit(old_limit)
    return times


def critical_path_length(algorithm: Algorithm, binding: ParamBinding) -> int:
    """Length (edge count) of the longest dependence chain inside ``J``."""
    times = free_schedule_times(algorithm, binding)
    return max(times.values(), default=0)


def free_schedule_time(algorithm: Algorithm, binding: ParamBinding) -> int:
    """The absolute minimum execution time: ``critical path + 1``."""
    return critical_path_length(algorithm, binding) + 1
