"""Validity conditions for conditional dependence vectors.

Most dependence vectors in a bit-level expansion are *not* uniform: they are
valid only on a subdomain of the index set.  The paper annotates each column
of the dependence matrix with a predicate such as ``i1 = 1``, ``i2 != 1``,
``j_n = u_n``, or ``i1 = p or i2 = 1`` (the boundary set ``q̄₂`` of
Expansion I).  This module provides a tiny closed predicate algebra over
index-point coordinates whose right-hand sides may be symbolic
(:class:`repro.structures.params.LinExpr`):

* atoms: :class:`Eq` (coordinate equals expression), :class:`Ne`
  (coordinate differs from expression), :data:`TRUE`, :data:`FALSE`;
* combinators: :class:`And`, :class:`Or`, :class:`Not`.

Conditions evaluate on concrete points given a parameter binding, can be
*shifted* to new axis positions (used when embedding the 2-D arithmetic
structure into an ``(n+2)``-dimensional bit-level structure), and have
canonical equality so derived structures can be compared against the paper's
matrices verbatim.
"""

from __future__ import annotations

from typing import Sequence

from repro.structures.params import LinExpr, ParamBinding, as_linexpr

__all__ = ["Condition", "Eq", "Ne", "And", "Or", "Not", "TRUE", "FALSE"]


class Condition:
    """Abstract predicate over index points ``q̄`` (tuples of ints)."""

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        """Return True when the predicate holds at ``point`` under ``binding``."""
        raise NotImplementedError

    def shift_axes(self, offset: int) -> "Condition":
        """Return the same predicate with every axis index moved by ``offset``."""
        raise NotImplementedError

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


class _True(Condition):
    """The always-true predicate: the dependence vector is *uniform*."""

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        return True

    def shift_axes(self, offset: int) -> "Condition":
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _True)

    def __hash__(self) -> int:
        return hash("TRUE")

    def __repr__(self) -> str:
        return "TRUE"


class _False(Condition):
    """The always-false predicate (empty validity domain)."""

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        return False

    def shift_axes(self, offset: int) -> "Condition":
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _False)

    def __hash__(self) -> int:
        return hash("FALSE")

    def __repr__(self) -> str:
        return "FALSE"


TRUE = _True()
FALSE = _False()


class Eq(Condition):
    """``point[axis] == value`` where ``value`` may be symbolic."""

    __slots__ = ("axis", "value")

    def __init__(self, axis: int, value: LinExpr | int):
        self.axis = int(axis)
        self.value = as_linexpr(value)

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        return point[self.axis] == self.value.evaluate(binding)

    def shift_axes(self, offset: int) -> "Condition":
        return Eq(self.axis + offset, self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Eq)
            and self.axis == other.axis
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash(("Eq", self.axis, self.value))

    def __repr__(self) -> str:
        return f"q[{self.axis}] == {self.value}"


class Ne(Condition):
    """``point[axis] != value`` where ``value`` may be symbolic."""

    __slots__ = ("axis", "value")

    def __init__(self, axis: int, value: LinExpr | int):
        self.axis = int(axis)
        self.value = as_linexpr(value)

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        return point[self.axis] != self.value.evaluate(binding)

    def shift_axes(self, offset: int) -> "Condition":
        return Ne(self.axis + offset, self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ne)
            and self.axis == other.axis
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash(("Ne", self.axis, self.value))

    def __repr__(self) -> str:
        return f"q[{self.axis}] != {self.value}"


def _flatten(kind: type, terms: Sequence[Condition]) -> tuple[Condition, ...]:
    out: list[Condition] = []
    for t in terms:
        if isinstance(t, kind):
            out.extend(t.terms)  # type: ignore[attr-defined]
        else:
            out.append(t)
    # Deduplicate while preserving order (conditions are hashable).
    seen: set[Condition] = set()
    uniq = []
    for t in out:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return tuple(uniq)


class And(Condition):
    """Conjunction of conditions; flattens and deduplicates its terms."""

    __slots__ = ("terms",)

    def __init__(self, *terms: Condition):
        flat = _flatten(And, terms)
        flat = tuple(t for t in flat if t is not TRUE and not isinstance(t, _True))
        self.terms = flat

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        return all(t.holds(point, binding) for t in self.terms)

    def shift_axes(self, offset: int) -> "Condition":
        return And(*(t.shift_axes(offset) for t in self.terms))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and set(self.terms) == set(other.terms)

    def __hash__(self) -> int:
        return hash(("And", frozenset(self.terms)))

    def __repr__(self) -> str:
        if not self.terms:
            return "TRUE"
        return "(" + " and ".join(map(repr, self.terms)) + ")"


class Or(Condition):
    """Disjunction of conditions; flattens and deduplicates its terms."""

    __slots__ = ("terms",)

    def __init__(self, *terms: Condition):
        flat = _flatten(Or, terms)
        flat = tuple(t for t in flat if not isinstance(t, _False))
        self.terms = flat

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        return any(t.holds(point, binding) for t in self.terms)

    def shift_axes(self, offset: int) -> "Condition":
        return Or(*(t.shift_axes(offset) for t in self.terms))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and set(self.terms) == set(other.terms)

    def __hash__(self) -> int:
        return hash(("Or", frozenset(self.terms)))

    def __repr__(self) -> str:
        if not self.terms:
            return "FALSE"
        return "(" + " or ".join(map(repr, self.terms)) + ")"


class Not(Condition):
    """Negation of a condition."""

    __slots__ = ("term",)

    def __init__(self, term: Condition):
        self.term = term

    def holds(self, point: Sequence[int], binding: ParamBinding) -> bool:
        return not self.term.holds(point, binding)

    def shift_axes(self, offset: int) -> "Condition":
        return Not(self.term.shift_axes(offset))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.term == other.term

    def __hash__(self) -> int:
        return hash(("Not", self.term))

    def __repr__(self) -> str:
        return f"not {self.term!r}"
