"""Program transformation: broadcast elimination.

Two preprocessing steps precede dependence analysis in the paper.  The
first, single-assignment conversion (Example 2.1), is written into the
builders: :func:`repro.ir.builders.matmul_naive` is program (2.2) already.
The second is done here:

**Broadcast elimination** (Fortes and Moldovan [2]): a read whose
subscript map is non-injective over the iteration space (e.g.
``x(j1,j3)`` inside a ``(j1,j2,j3)`` nest) means one datum is needed by
many iterations simultaneously.  Broadcasting is undesirable in VLSI, so
the datum is *pipelined* instead: a propagation statement
``x(j̄) = x(j̄ - d̄)`` is added, with ``d̄`` an integer generator of the
nullspace of the subscript map, and the original read becomes ``x(j̄)``.
Applying this to (2.2) yields program (2.3), and to (3.1) yields (3.3).
"""

from __future__ import annotations

from repro.ir.expr import var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.util.intmath import gcd_list
from repro.util.linalg import integer_nullspace, integer_rank

__all__ = [
    "eliminate_broadcasts",
    "broadcast_directions",
]


def _subscript_coeff_matrix(access: ArrayAccess, index_order: tuple[str, ...]):
    """Coefficient matrix of an access: rows = subscripts, cols = loop indices."""
    return [e.coeff_vector(index_order) for e in access.subscripts]


def _is_injective(access: ArrayAccess, index_order: tuple[str, ...]) -> bool:
    """True when distinct iterations always reference distinct elements."""
    mat = _subscript_coeff_matrix(access, index_order)
    if not mat:
        return len(index_order) == 0
    return integer_rank(mat) == len(index_order)


def broadcast_directions(program: LoopNest) -> dict[str, list[int]]:
    """The broadcast (propagation) direction for each broadcast array.

    For every array read through a non-injective subscript map, return an
    integer generator of the map's nullspace, normalized to be primitive
    (gcd 1) and lexicographically positive.  These are the directions along
    which Fortes-Moldovan pipelining propagates the datum.
    """
    order = program.index_names
    out: dict[str, list[int]] = {}
    for stmt in program.statements:
        for acc in stmt.reads:
            if acc.array in out or acc.array in program.arrays_written():
                continue
            if _is_injective(acc, order):
                continue
            basis = integer_nullspace(_subscript_coeff_matrix(acc, order))
            if len(basis) != 1:
                raise NotImplementedError(
                    f"broadcast of {acc.array} spans a {len(basis)}-dimensional "
                    "direction space; only rank-1 broadcasts are supported"
                )
            d = basis[0]
            g = gcd_list(d)
            if g > 1:
                d = [x // g for x in d]
            # Lexicographically positive orientation so data flow forward.
            first = next((x for x in d if x != 0), 0)
            if first < 0:
                d = [-x for x in d]
            out[acc.array] = d
    return out


def eliminate_broadcasts(program: LoopNest) -> LoopNest:
    """Fortes-Moldovan broadcast elimination.

    Every broadcast array ``v`` (read through a non-injective map, not
    written by the program) is replaced by a full-rank pipelined array:
    a new statement ``v(j̄) = v(j̄ - d̄)`` is prepended and every original
    read of ``v`` becomes ``v(j̄)``.  Applied to :func:`~repro.ir.builders.
    matmul_naive` this reproduces program (2.3); applied to
    :func:`~repro.ir.builders.addshift_broadcast` it reproduces (3.3).
    """
    order = program.index_names
    directions = broadcast_directions(program)
    idx = [var(name) for name in order]

    pipeline_stmts = [
        Statement(
            f"S_{array}_pipe",
            ArrayAccess(array, idx),
            [ArrayAccess(array, [idx[k] - d[k] for k in range(len(order))])],
            description=f"{array}(j̄) = {array}(j̄ - {d})  [broadcast eliminated]",
        )
        for array, d in directions.items()
    ]

    new_statements: list[Statement] = []
    for stmt in program.statements:
        new_reads = [
            ArrayAccess(acc.array, idx) if acc.array in directions else acc
            for acc in stmt.reads
        ]
        new_statements.append(
            Statement(stmt.name, stmt.write, new_reads, stmt.guard, stmt.description)
        )
    return LoopNest(
        program.index_names,
        program.index_set,
        pipeline_stmts + new_statements,
        program.name + "+nobroadcast",
    )
