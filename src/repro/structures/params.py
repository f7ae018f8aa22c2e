"""Linear symbolic expressions over named integer parameters.

The paper states index sets and validity conditions parametrically: the
add-shift multiplier lattice is ``1 <= i1, i2 <= p`` for a symbolic word
length ``p``; the bit-level matmul set is ``1 <= j_i <= u``.  To mirror that,
bounds and condition right-hand sides are :class:`LinExpr` values -- integer
linear combinations of named parameters plus a constant -- which can be
compared symbolically and instantiated with a :class:`ParamBinding`.

Only linear expressions are needed anywhere in the paper, which keeps this
layer tiny and exact.

>>> p = S("p")
>>> (2 * p - 1).evaluate({"p": 4})
7
>>> p + 1 == S("p") + 1
True
"""

from __future__ import annotations

from typing import Mapping, Union

__all__ = ["LinExpr", "S", "ParamBinding", "as_linexpr"]

ParamBinding = Mapping[str, int]
ExprLike = Union["LinExpr", int]


class LinExpr:
    """An integer linear expression ``const + sum_k coeff_k * param_k``.

    Immutable and hashable; supports ``+``, ``-``, ``*`` (by int), equality,
    and evaluation under a parameter binding.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, const: int = 0, coeffs: Mapping[str, int] | None = None):
        self.const = int(const)
        items = {}
        if coeffs:
            for name, c in coeffs.items():
                c = int(c)
                if c != 0:
                    items[name] = c
        # Canonical (sorted) tuple form keeps hashing/equality deterministic.
        self.coeffs: tuple[tuple[str, int], ...] = tuple(sorted(items.items()))

    # -- constructors -----------------------------------------------------
    @staticmethod
    def symbol(name: str) -> "LinExpr":
        """The expression consisting of a single parameter."""
        return LinExpr(0, {name: 1})

    # -- queries -----------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        """True when no parameter appears."""
        return not self.coeffs

    def constant_value(self) -> int:
        """Return the integer value of a constant expression."""
        if not self.is_constant:
            raise ValueError(f"{self!r} is not constant")
        return self.const

    def evaluate(self, binding: ParamBinding) -> int:
        """Evaluate under ``binding``; raises ``KeyError`` on missing params."""
        total = self.const
        for name, c in self.coeffs:
            total += c * int(binding[name])
        return total

    # -- arithmetic ----------------------------------------------------------
    def _coeff_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    def __add__(self, other: ExprLike) -> "LinExpr":
        other = as_linexpr(other)
        coeffs = self._coeff_dict()
        for name, c in other.coeffs:
            coeffs[name] = coeffs.get(name, 0) + c
        return LinExpr(self.const + other.const, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr(-self.const, {name: -c for name, c in self.coeffs})

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self + (-as_linexpr(other))

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return as_linexpr(other) + (-self)

    def __mul__(self, k: int) -> "LinExpr":
        if isinstance(k, LinExpr):
            if k.is_constant:
                k = k.const
            else:
                raise TypeError("LinExpr supports multiplication by integers only")
        k = int(k)
        return LinExpr(self.const * k, {name: c * k for name, c in self.coeffs})

    __rmul__ = __mul__

    # -- comparison / hashing ------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LinExpr(other)
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.const, self.coeffs))

    # -- formatting ------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinExpr({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for name, c in self.coeffs:
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out


def S(name: str) -> LinExpr:
    """Shorthand for :meth:`LinExpr.symbol` -- ``S("p")`` is the parameter p."""
    return LinExpr.symbol(name)


def as_linexpr(value: ExprLike) -> LinExpr:
    """Coerce an ``int`` or :class:`LinExpr` into a :class:`LinExpr`."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, int):
        return LinExpr(value)
    raise TypeError(f"cannot interpret {value!r} as a linear expression")
