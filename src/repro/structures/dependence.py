"""Dependence vectors and dependence matrices.

A dependence pair ``(j̄, d̄)`` records that iteration ``j̄`` depends on
iteration ``j̄ - d̄``.  A :class:`DependenceVector` is the distilled form used
by the paper's dependence matrices: the integer vector ``d̄``, the variable
that causes it (the column labels ``x``, ``y``, ``z``, ``c``, ``c'`` on top of
the paper's matrices), and the *validity condition* -- the subdomain of the
index set at which the dependence holds.  A vector with validity ``TRUE`` is
*uniform* in the paper's sense.

A :class:`DependenceMatrix` is an ordered collection of distinct dependence
vectors (the columns of ``D``) with helpers to list its columns, select
them by cause and find the vectors valid at a point.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.structures.conditions import Condition, TRUE
from repro.structures.params import ParamBinding

__all__ = ["DependenceVector", "DependenceMatrix"]


class DependenceVector:
    """A (possibly conditional) dependence vector.

    Parameters
    ----------
    vector:
        The integer difference ``d̄ = j̄ - j̄'`` between the dependent and the
        depended-on iteration.
    causes:
        Names of the variables responsible (``("x",)``, ``("y", "c")``, ...).
    validity:
        Predicate on index points at which the dependence is valid; ``TRUE``
        means the vector is uniform.
    """

    __slots__ = ("vector", "causes", "validity")

    def __init__(
        self,
        vector: Sequence[int],
        causes: Iterable[str] = (),
        validity: Condition = TRUE,
    ):
        self.vector: tuple[int, ...] = tuple(int(x) for x in vector)
        self.causes: tuple[str, ...] = tuple(causes)
        self.validity = validity

    @property
    def dim(self) -> int:
        """Dimensionality of the vector."""
        return len(self.vector)

    @property
    def is_uniform(self) -> bool:
        """True when the vector is valid at every index point."""
        return self.validity == TRUE

    def valid_at(self, point: Sequence[int], binding: ParamBinding) -> bool:
        """True when the dependence is valid at ``point`` under ``binding``."""
        return self.validity.holds(point, binding)

    def prefixed(self, zeros: int, axis_offset: int | None = None) -> "DependenceVector":
        """Prefix the vector with ``zeros`` zero components.

        This is the paper's construction "``δ̄₁`` prefixed by a zero
        corresponding to the ``j`` axis": embedding an arithmetic-level
        dependence into the bit-level space.  The validity condition's axes
        are shifted accordingly (by ``zeros`` unless overridden).
        """
        if axis_offset is None:
            axis_offset = zeros
        return DependenceVector(
            (0,) * zeros + self.vector,
            self.causes,
            self.validity.shift_axes(axis_offset),
        )

    def suffixed(self, zeros: int) -> "DependenceVector":
        """Append ``zeros`` zero components (word-level vector ``h̄`` into
        the bit-level space ``[h̄ᵀ, 0, 0]ᵀ``); validity axes are unchanged."""
        return DependenceVector((*self.vector, *((0,) * zeros)), self.causes, self.validity)

    def with_validity(self, validity: Condition) -> "DependenceVector":
        """Return a copy with a replaced validity condition."""
        return DependenceVector(self.vector, self.causes, validity)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependenceVector):
            return NotImplemented
        return (
            self.vector == other.vector
            and self.validity == other.validity
            and set(self.causes) == set(other.causes)
        )

    def __hash__(self) -> int:
        return hash((self.vector, self.validity, frozenset(self.causes)))

    def __repr__(self) -> str:
        causes = ",".join(self.causes) or "?"
        cond = "" if self.is_uniform else f" valid at {self.validity!r}"
        return f"d[{causes}]={list(self.vector)}{cond}"


class DependenceMatrix:
    """Ordered collection of distinct dependence vectors (columns of ``D``)."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Iterable[DependenceVector]):
        vecs = list(vectors)
        dims = {v.dim for v in vecs}
        if len(dims) > 1:
            raise ValueError(f"inconsistent dependence vector dimensions: {dims}")
        self.vectors: tuple[DependenceVector, ...] = tuple(vecs)

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[DependenceVector]:
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> DependenceVector:
        return self.vectors[i]

    # -- views ----------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Row count ``n`` of the matrix (algorithm dimension)."""
        return self.vectors[0].dim if self.vectors else 0

    def columns(self) -> list[tuple[int, ...]]:
        """The column vectors as tuples."""
        return [v.vector for v in self.vectors]

    @property
    def is_uniform(self) -> bool:
        """True when every dependence vector is uniform (paper: *uniform
        dependence algorithm*)."""
        return all(v.is_uniform for v in self.vectors)

    def by_cause(self, cause: str) -> list[DependenceVector]:
        """All vectors caused (at least in part) by variable ``cause``."""
        return [v for v in self.vectors if cause in v.causes]

    def valid_vectors_at(
        self, point: Sequence[int], binding: ParamBinding
    ) -> list[DependenceVector]:
        """The subset of vectors valid at a concrete index point."""
        return [v for v in self.vectors if v.valid_at(point, binding)]

    # -- comparisons -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependenceMatrix):
            return NotImplemented
        return set(self.vectors) == set(other.vectors)

    def __hash__(self) -> int:
        return hash(frozenset(self.vectors))

    def __repr__(self) -> str:
        return "DependenceMatrix[\n  " + "\n  ".join(map(repr, self.vectors)) + "\n]"
