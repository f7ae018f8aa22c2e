"""Loop-nest programs: statements with affine accesses and region guards.

A :class:`LoopNest` is the executable form of the paper's model (2.1):

.. code-block:: none

    DO (j1 = l1, u1; ...; jn = ln, un)
        S1(j̄)
        ...
        Sq(j̄)
    END

Each :class:`Statement` writes one array element through an affine subscript
map and reads zero or more elements.  A statement may carry a *guard*
(:class:`~repro.structures.conditions.Condition` over the index tuple), which
is how the explicit bit-level programs express their region structure (e.g.
"pipeline ``x`` along the ``j`` axis only where ``i1 = 1``").

The analyzer in :mod:`repro.depanalysis` treats all statements of one
iteration as a single computation node, matching the paper's convention.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.ir.expr import AffineExpr
from repro.structures.conditions import Condition, TRUE
from repro.structures.indexset import IndexSet
from repro.structures.params import ParamBinding

__all__ = ["ArrayAccess", "Statement", "LoopNest"]


class ArrayAccess:
    """A reference ``array(e_1, ..., e_k)`` with affine subscripts."""

    __slots__ = ("array", "subscripts")

    def __init__(self, array: str, subscripts: Sequence[AffineExpr]):
        self.array = array
        self.subscripts: tuple[AffineExpr, ...] = tuple(subscripts)

    @property
    def rank(self) -> int:
        """Number of subscript positions."""
        return len(self.subscripts)

    def element(
        self, point: Mapping[str, int], binding: ParamBinding
    ) -> tuple[str, tuple[int, ...]]:
        """The concrete array element referenced at ``point``."""
        return self.array, tuple(
            e.evaluate(point, binding) for e in self.subscripts
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayAccess):
            return NotImplemented
        return self.array == other.array and self.subscripts == other.subscripts

    def __hash__(self) -> int:
        return hash((self.array, self.subscripts))

    def __repr__(self) -> str:
        subs = ", ".join(map(repr, self.subscripts))
        return f"{self.array}({subs})"


class Statement:
    """One assignment ``write = f(reads...)`` guarded by a region predicate."""

    __slots__ = ("name", "write", "reads", "guard", "description")

    def __init__(
        self,
        name: str,
        write: ArrayAccess,
        reads: Iterable[ArrayAccess] = (),
        guard: Condition = TRUE,
        description: str = "",
    ):
        self.name = name
        self.write = write
        self.reads: tuple[ArrayAccess, ...] = tuple(reads)
        self.guard = guard
        self.description = description

    def active_at(self, point: Sequence[int], binding: ParamBinding) -> bool:
        """True when the statement executes at ``point`` (guard holds)."""
        return self.guard.holds(point, binding)

    def __repr__(self) -> str:
        rhs = ", ".join(map(repr, self.reads))
        guard = "" if self.guard is TRUE else f"  [if {self.guard!r}]"
        return f"{self.name}: {self.write!r} = f({rhs}){guard}"


class LoopNest:
    """An ``n``-dimensional nested DO loop program.

    Parameters
    ----------
    index_names:
        Loop index names, outermost first (``("j1", "j2", "j3")``).
    index_set:
        The iteration space (bounds may be symbolic).
    statements:
        The loop body, in program order.
    name:
        Display name.
    """

    __slots__ = ("index_names", "index_set", "statements", "name")

    def __init__(
        self,
        index_names: Sequence[str],
        index_set: IndexSet,
        statements: Iterable[Statement],
        name: str = "loopnest",
    ):
        if len(index_names) != index_set.dim:
            raise ValueError("index name count does not match index set dimension")
        self.index_names: tuple[str, ...] = tuple(index_names)
        self.index_set = index_set.rename(index_names)
        self.statements: tuple[Statement, ...] = tuple(statements)
        self.name = name
        # Every analyzer equates subscripts position by position, so an
        # array must have one rank across all of its accesses.
        ranks: dict[str, int] = {}
        for stmt in self.statements:
            for acc in (stmt.write, *stmt.reads):
                rank = ranks.setdefault(acc.array, acc.rank)
                if rank != acc.rank:
                    raise ValueError(
                        f"rank mismatch on array {acc.array}: "
                        f"{rank} vs {acc.rank}"
                    )

    @property
    def dim(self) -> int:
        """Loop-nest depth ``n`` (the algorithm dimension)."""
        return len(self.index_names)

    def axis(self, index_name: str) -> int:
        """Position of a loop index within the index vector."""
        return self.index_names.index(index_name)

    def point_env(self, point: Sequence[int]) -> dict[str, int]:
        """Map a concrete index tuple to a ``{name: value}`` environment."""
        return dict(zip(self.index_names, point))

    def writes(self) -> list[ArrayAccess]:
        """All write accesses in program order."""
        return [s.write for s in self.statements]

    def arrays_written(self) -> set[str]:
        """Names of arrays written by some statement."""
        return {s.write.array for s in self.statements}

    def verify_single_assignment(self, binding: ParamBinding) -> bool:
        """Check the paper's single-assignment premise on a concrete instance.

        Every array element must be written at most once over the whole
        execution; the paper assumes this (Section 2) so that no output or
        anti dependences arise.
        """
        written: set[tuple[str, tuple[int, ...]]] = set()
        for point in self.index_set.points(binding):
            env = self.point_env(point)
            for stmt in self.statements:
                if not stmt.active_at(point, binding):
                    continue
                elem = stmt.write.element(env, binding)
                if elem in written:
                    return False
                written.add(elem)
        return True

    def __repr__(self) -> str:
        body = "\n  ".join(map(repr, self.statements))
        return (
            f"LoopNest {self.name!r} over {self.index_set!r}:\n  {body}"
        )
