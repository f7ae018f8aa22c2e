"""Interconnection primitives and the ``S·D = P·K`` factorization.

Condition 2 of Definition 4.1: the space mapping must be implementable on a
target machine whose processor links are the columns of the interconnection
primitive matrix ``P``.  For each dependence vector ``d̄_i``, the datum must
travel from processor ``S(j̄-d̄_i)`` to ``S j̄`` -- a displacement of
``S d̄_i`` -- using a nonnegative integer combination ``k̄_i`` of primitives
(``P k̄_i = S d̄_i``) whose total hop count satisfies the arrival deadline
(4.1):

.. math:: \\sum_j k_{ji} \\le \\Pi \\bar d_i .

Strict inequality means the datum arrives early and sits in
``Π d̄_i - Σ_j k_ji`` buffer stages on the link (the paper's Fig. 4 has one
such buffer on the ``[1,0]ᵀ`` primitive because ``Π d̄₄ = 2`` but the
displacement needs a single hop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.util.linalg import mat_mul, mat_vec

__all__ = [
    "mesh_primitives",
    "with_long_wires",
    "solve_interconnect",
    "check_primitive_rows",
    "InterconnectSolution",
]


def mesh_primitives(dim: int = 2) -> list[list[int]]:
    """The nearest-neighbour (NEWS) primitive matrix for a ``dim``-D mesh.

    Columns are ``±e_i``; for ``dim = 2`` this is the paper's
    ``P = [[0,0,1,-1],[1,-1,0,0]]``.
    """
    cols: list[list[int]] = []
    for axis in range(dim):
        for sign in (1, -1):
            col = [0] * dim
            col[axis] = sign
            cols.append(col)
    # Transpose to matrix form (rows = dims, cols = primitives).
    return [[col[r] for col in cols] for r in range(dim)]


def with_long_wires(extra_columns: Sequence[Sequence[int]], dim: int = 2) -> list[list[int]]:
    """A mesh primitive matrix augmented with long-wire columns.

    ``extra_columns`` are displacement vectors (e.g. ``[p, 0]``) appended as
    additional primitives, as in the paper's ``P`` of eq. (4.3).
    """
    base = mesh_primitives(dim)
    out = [list(row) for row in base]
    for col in extra_columns:
        if len(col) != dim:
            raise ValueError("long-wire column dimension mismatch")
        for r in range(dim):
            out[r].append(int(col[r]))
    return out


@dataclass
class InterconnectSolution:
    """A feasible ``K`` with hop/buffer accounting, one column per ``d̄_i``."""

    p_matrix: list[list[int]]
    k_matrix: list[list[int]]  # r x m
    hops: list[int]  # total primitive uses per dependence column
    deadlines: list[int]  # Π d̄_i per column
    buffers: list[int]  # deadline - hops (>= 0)

    def verify(self, s_matrix: Sequence[Sequence[int]], d_matrix: Sequence[Sequence[int]]) -> bool:
        """Re-check ``S·D == P·K`` and the deadline inequality exactly."""
        left = mat_mul(list(s_matrix), list(d_matrix))
        right = mat_mul(self.p_matrix, self.k_matrix)
        if left != right:
            return False
        return all(h <= t for h, t in zip(self.hops, self.deadlines))


def _column_combinations(
    p_matrix: Sequence[Sequence[int]],
    target: Sequence[int],
    budget: int,
) -> list[int] | None:
    """Find nonnegative ``k̄`` with ``P k̄ = target`` and ``Σ k̄ <= budget``.

    Depth-first search over primitive multiplicities, preferring solutions
    with the fewest hops (the search explores counts in increasing order and
    returns the first complete assignment found at the smallest total).
    """
    rows = len(p_matrix)
    r = len(p_matrix[0]) if rows else 0
    cols = [[p_matrix[i][j] for i in range(rows)] for j in range(r)]

    best: list[int] | None = None

    def dfs(j: int, remaining: list[int], used: int, counts: list[int]) -> None:
        nonlocal best
        if best is not None and used >= sum(best):
            return
        if j == r:
            if all(x == 0 for x in remaining):
                if best is None or used < sum(best):
                    best = list(counts)
            return
        col = cols[j]
        # Upper bound on this primitive's multiplicity from the budget.
        for c in range(0, budget - used + 1):
            new_remaining = [remaining[i] - c * col[i] for i in range(rows)]
            counts.append(c)
            dfs(j + 1, new_remaining, used + c, counts)
            counts.pop()

    dfs(0, list(target), 0, [])
    return best


def _solve_column(
    p_key: tuple[tuple[int, ...], ...],
    target: Sequence[int],
    budget: int,
    cache=None,
) -> list[int] | None:
    """:func:`_column_combinations` for ``P`` given by its rows as
    tuples, memoized in ``cache`` (an
    :class:`~repro.mapping.memo.EvalCache`) on ``(P, target)`` for every
    budget its answer covers
    (:meth:`~repro.mapping.memo.EvalCache.get_column`)."""
    if cache is None:
        return _column_combinations(p_key, target, budget)
    return cache.get_column(
        (p_key, tuple(target)), budget,
        lambda b: _column_combinations(p_key, target, b),
    )


def check_primitive_rows(p_matrix: Sequence[Sequence[int]], space_dim: int) -> None:
    """Condition 2 compares ``S·D`` with ``P·K``, so ``P`` needs one row
    per space dimension; raise a ``ValueError`` naming both otherwise."""
    rows = len(p_matrix)
    if rows != space_dim:
        raise ValueError(
            f"interconnection primitive matrix P has {rows} row(s) but the "
            f"space mapping has {space_dim} dimension(s); condition 2 needs "
            f"one row of P per space dimension"
        )


def solve_interconnect(
    s_matrix: Sequence[Sequence[int]],
    d_matrix: Sequence[Sequence[int]],
    schedule: Sequence[int],
    p_matrix: Sequence[Sequence[int]],
    *,
    cache=None,
) -> InterconnectSolution | None:
    """Solve ``S·D = P·K`` column by column under the deadline (4.1).

    Returns ``None`` when some dependence displacement cannot be realized
    with the given primitives within its schedule slack.

    ``cache`` (an :class:`repro.mapping.memo.EvalCache`) memoizes the
    per-column subproblem ``P k̄ = S d̄_i`` on the canonical key
    ``(P, S d̄_i)``, with the budget it ran under
    (:meth:`~repro.mapping.memo.EvalCache.get_column`): the minimum-hop
    ``k̄`` does not depend on the budget once the budget covers it, so one
    solve answers every deadline ``Π d̄_i`` it covers.  Across the
    candidate mappings of a design-space search the same displacements
    recur for every schedule sharing a space row, and a solver search's
    certifying check reads the column its plan solved under the largest
    deadline, so most columns are answered without re-running the
    depth-first search.

    Raises ``ValueError`` when ``P``'s row count differs from ``S``'s.
    """
    check_primitive_rows(p_matrix, len(s_matrix))
    m = len(d_matrix[0]) if d_matrix else 0
    n = len(d_matrix)
    r = len(p_matrix[0]) if p_matrix else 0
    p_key = tuple(tuple(int(x) for x in row) for row in p_matrix)
    k_cols: list[list[int]] = []
    hops: list[int] = []
    deadlines: list[int] = []
    for i in range(m):
        d_col = [d_matrix[row][i] for row in range(n)]
        target = mat_vec(list(s_matrix), d_col)
        deadline = sum(schedule[row] * d_col[row] for row in range(n))
        k_col = _solve_column(p_key, target, deadline, cache)
        if k_col is None:
            return None
        k_cols.append(k_col)
        hops.append(sum(k_col))
        deadlines.append(deadline)
    k_matrix = [[k_cols[i][j] for i in range(m)] for j in range(r)]
    return InterconnectSolution(
        p_matrix=[list(row) for row in p_matrix],
        k_matrix=k_matrix,
        hops=hops,
        deadlines=deadlines,
        buffers=[t - h for h, t in zip(hops, deadlines)],
    )
