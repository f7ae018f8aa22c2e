"""Linear schedules: validity, execution time (4.5), and optimality search.

The execution time of a mapped algorithm is

.. math:: t = \\max\\{ \\Pi(\\bar q_1 - \\bar q_2) :
                       \\bar q_1, \\bar q_2 \\in J \\} + 1

(eq. (4.5)), which over a box index set is computed exactly corner-to-corner
by coefficient sign.  :func:`ranked_schedules` lists the valid schedules of
the bounded integer schedule space (``Π D > 0``) by that time, once for the
whole design search; :func:`find_optimal_schedule` walks the same list for
the fastest Π that (optionally) meets the interconnect deadline (4.1) for a
fixed space mapping -- this is how the time-optimality claim of Theorem 4.5
is certified on concrete instances.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro import obs
from repro.depanalysis.banerjee import affine_range
from repro.mapping.interconnect import solve_interconnect
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding

__all__ = [
    "schedule_is_valid",
    "execution_time",
    "ranked_schedules",
    "find_optimal_schedule",
    "certify_time_optimal",
]


def schedule_is_valid(schedule: Sequence[int], algorithm: Algorithm) -> bool:
    """Condition 1: ``Π d̄_i > 0`` for every dependence vector."""
    for vec in algorithm.dependences:
        if sum(c * d for c, d in zip(schedule, vec.vector)) <= 0:
            return False
    return True


def execution_time(
    schedule: Sequence[int],
    algorithm: Algorithm,
    binding: ParamBinding,
) -> int:
    """Total execution time (4.5) of a linear schedule over a box index set.

    ``t = max Π(q̄₁ - q̄₂) + 1`` equals the spread of ``Π q̄`` over the box
    plus one, obtained exactly from the per-axis bounds by coefficient sign.
    Affine-constrained index sets (triangular domains) are handled exactly
    by enumeration instead.
    """
    index_set = algorithm.index_set
    if getattr(index_set, "is_constrained", False):
        times = [
            sum(c * x for c, x in zip(schedule, pt))
            for pt in index_set.points(binding)
        ]
        if not times:
            return 0
        return max(times) - min(times) + 1
    bounds = index_set.bounds(binding)
    lo, hi = affine_range(list(schedule), bounds)
    return hi - lo + 1


def ranked_schedules(
    algorithm: Algorithm,
    binding: ParamBinding,
    schedule_bound: int,
) -> list[tuple[int, tuple[int, ...]]]:
    """All valid schedules within the coefficient bound, fastest first.

    Returns ``(execution_time, Π)`` pairs sorted by time (ties keep
    enumeration order).  Validity (``Π D > 0``) and the time (4.5) depend
    only on ``(D, J, binding)`` -- not on the space mapping -- so the
    design search computes this list once and reuses it for every space
    candidate.
    """
    n = algorithm.dim
    out: list[tuple[int, tuple[int, ...]]] = []
    rejected = 0
    for pi in itertools.product(
        range(-schedule_bound, schedule_bound + 1), repeat=n
    ):
        if not schedule_is_valid(pi, algorithm):
            rejected += 1
            continue
        out.append((execution_time(pi, algorithm, binding), tuple(pi)))
    out.sort(key=lambda item: item[0])
    obs.count_many(
        {
            "schedules_tried": rejected + len(out),
            "schedules_valid": len(out),
        },
        prefix="mapping.",
    )
    return out


def find_optimal_schedule(
    algorithm: Algorithm,
    binding: ParamBinding,
    coeff_bound: int = 3,
    space: Sequence[Sequence[int]] | None = None,
    primitives: Sequence[Sequence[int]] | None = None,
) -> tuple[list[int], int] | None:
    """Exhaustively search schedules with ``|Π_i| <= coeff_bound``.

    Returns ``(Π*, t*)`` minimizing the execution time subject to
    ``Π D > 0``; when ``space`` and ``primitives`` are supplied, the
    interconnect constraint (4.1) is also enforced (``S·D = P·K`` with the
    hop count within each deadline ``Π d̄_i``).  Returns ``None`` when no
    valid schedule exists within the bound.  Of equally fast schedules the
    first in enumeration order wins: this is the first entry of
    :func:`ranked_schedules` that passes the interconnect check.

    The coefficient bound keeps the search finite; for the structures of the
    paper the optimal schedules have small coefficients (the paper's own Π
    has entries in ``{1, 2}``), and enlarging the bound only confirms the
    optimum (see the time-optimality benchmarks).
    """
    d_cols = algorithm.dependences.columns()
    d_matrix = [[col[row] for col in d_cols] for row in range(algorithm.dim)]
    for t, pi in ranked_schedules(algorithm, binding, coeff_bound):
        if space is not None and primitives is not None:
            if solve_interconnect(space, d_matrix, pi, primitives) is None:
                continue
        return list(pi), t
    return None


def certify_time_optimal(
    t_matrix: MappingMatrix,
    algorithm: Algorithm,
    binding: ParamBinding,
    coeff_bound: int = 3,
    primitives: Sequence[Sequence[int]] | None = None,
) -> tuple[bool, tuple[list[int], int] | None]:
    """Certify that ``T``'s schedule is time-optimal on a concrete instance.

    Searches all schedules within ``coeff_bound`` (respecting ``Π D > 0``
    and, if ``primitives`` is given, the interconnect deadline for ``T``'s
    space mapping) and compares the best found against ``T``'s own execution
    time.  Returns ``(is_optimal, best_found)``.
    """
    own = execution_time(t_matrix.schedule, algorithm, binding)
    best = find_optimal_schedule(
        algorithm,
        binding,
        coeff_bound=coeff_bound,
        space=t_matrix.space if primitives is not None else None,
        primitives=primitives,
    )
    if best is None:
        return False, None
    return own <= best[1], best
