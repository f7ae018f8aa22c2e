"""Affine expressions over loop indices.

An :class:`AffineExpr` is ``sum_i c_i * index_i + const`` where the ``c_i``
are integers and ``const`` may be symbolic
(:class:`~repro.structures.params.LinExpr`), e.g. ``j2 - 1`` or ``i1 + p``.
Array subscripts, loop bounds and guard thresholds are all affine in this
sense (the paper's ``g()``/``h_i()`` are linear functions of ``j̄``).
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from repro.structures.params import LinExpr, ParamBinding, as_linexpr

__all__ = ["AffineExpr", "var"]

ExprLike = Union["AffineExpr", LinExpr, int]


class AffineExpr:
    """``sum_i coeffs[name_i] * index_i + offset`` with symbolic offset."""

    __slots__ = ("coeffs", "offset")

    def __init__(
        self,
        coeffs: Mapping[str, int] | None = None,
        offset: LinExpr | int = 0,
    ):
        items: dict[str, int] = {}
        if coeffs:
            for name, c in coeffs.items():
                c = int(c)
                if c != 0:
                    items[name] = c
        self.coeffs: tuple[tuple[str, int], ...] = tuple(sorted(items.items()))
        self.offset: LinExpr = as_linexpr(offset)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def index(name: str) -> "AffineExpr":
        """The expression consisting of the single loop index ``name``."""
        return AffineExpr({name: 1})

    # -- queries --------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        """True when no loop index appears (the offset may be symbolic)."""
        return not self.coeffs

    def indices(self) -> frozenset[str]:
        """Loop-index names with nonzero coefficient."""
        return frozenset(name for name, _ in self.coeffs)

    def coeff(self, name: str) -> int:
        """Coefficient of loop index ``name`` (0 if absent)."""
        for n, c in self.coeffs:
            if n == name:
                return c
        return 0

    def evaluate(self, point: Mapping[str, int], binding: ParamBinding) -> int:
        """Evaluate at a concrete index assignment and parameter binding."""
        total = self.offset.evaluate(binding)
        for name, c in self.coeffs:
            total += c * int(point[name])
        return total

    def coeff_vector(self, index_order: Sequence[str]) -> list[int]:
        """Coefficient row aligned to a fixed index ordering."""
        return [self.coeff(name) for name in index_order]

    # -- arithmetic -------------------------------------------------------------
    def _as_expr(self, other: ExprLike) -> "AffineExpr":
        if isinstance(other, AffineExpr):
            return other
        return AffineExpr({}, as_linexpr(other))

    def __add__(self, other: ExprLike) -> "AffineExpr":
        other = self._as_expr(other)
        coeffs = dict(self.coeffs)
        for name, c in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + c
        return AffineExpr(coeffs, self.offset + other.offset)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({n: -c for n, c in self.coeffs}, -self.offset)

    def __sub__(self, other: ExprLike) -> "AffineExpr":
        return self + (-self._as_expr(other))

    def __rsub__(self, other: ExprLike) -> "AffineExpr":
        return self._as_expr(other) + (-self)

    def __mul__(self, k: int) -> "AffineExpr":
        k = int(k)
        return AffineExpr({n: c * k for n, c in self.coeffs}, self.offset * k)

    __rmul__ = __mul__

    # -- identity -------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LinExpr)):
            other = AffineExpr({}, as_linexpr(other))
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.coeffs, self.offset))

    def __repr__(self) -> str:
        parts = []
        for name, c in self.coeffs:
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        off = str(self.offset)
        if off != "0" or not parts:
            parts.append(off)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out


def var(name: str) -> AffineExpr:
    """Shorthand for :meth:`AffineExpr.index`."""
    return AffineExpr.index(name)
