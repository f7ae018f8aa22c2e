"""The carry-save array multiplier.

Section 4.2 of the paper notes that "faster arithmetic algorithms such as
carry-save multiplication with complexity ``t_b = O(p)`` can be used" in the
word-level baseline, reducing the bit-level speedup from ``O(p²)`` to
``O(p)``.  This module provides that algorithm: a ``p x p`` lattice of
3-to-2 compressors in which carries are *saved* -- forwarded one row south to
``(i1+1, i2)`` (weight-consistent, direction ``[1,0]ᵀ``) -- instead of
rippling within the row, followed by a final carry-propagate pass over the
redundant last row.

Lattice roles (cell ``(i1,i2)``, weight ``2^{i1+i2-2}``):

* partial product ``a_{i2} ∧ b_{i1}``;
* partial sum in from ``(i1-1, i2+1)`` (``δ̄₃ = [1,-1]ᵀ``);
* saved carry in from ``(i1-1, i2)`` (``δ̄_c = [1,0]ᵀ``, shared with the
  ``a``-pipelining direction).

The low product bits leave at the eastern column (``s(i1,1)``); the last row
retains a redundant (sum, carry) pair resolved by the final adder.
"""

from __future__ import annotations

from repro.arith.bitops import full_adder, to_bits
from repro.arith.structure import ArithmeticStructure
from repro.structures.indexset import IndexSet
from repro.structures.params import LinExpr, S, as_linexpr

__all__ = ["CarrySaveMultiplier", "carrysave_structure"]


class CarrySaveMultiplier:
    """Bit-exact evaluator of the carry-save array for word length ``p``."""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("word length p must be positive")
        self.p = int(p)

    def trace(self, a: int, b: int) -> dict:
        """Evaluate the array; returns the ``s``/``c`` grids and final rows."""
        p = self.p
        a_bits = to_bits(a, p)
        b_bits = to_bits(b, p)
        s: dict[tuple[int, int], int] = {}
        c: dict[tuple[int, int], int] = {}
        for i1 in range(1, p + 1):
            for i2 in range(1, p + 1):
                pp = a_bits[i2 - 1] & b_bits[i1 - 1]
                s_in = s.get((i1 - 1, i2 + 1), 0)
                c_in = c.get((i1 - 1, i2), 0)
                sb, cb = full_adder(pp, s_in, c_in)
                s[(i1, i2)] = sb
                c[(i1, i2)] = cb
        return {"s": s, "c": c}

    def multiply(self, a: int, b: int) -> int:
        """The exact product: eastern-column bits plus the resolved last row."""
        p = self.p
        t = self.trace(a, b)
        s, c = t["s"], t["c"]
        # Low bits: s(i1, 1) has weight 2^{i1-1}.
        value = sum(s[(i1, 1)] << (i1 - 1) for i1 in range(1, p + 1))
        # Redundant last row: s(p, i2) weight 2^{p+i2-2} (i2 >= 2),
        # c(p, i2) weight 2^{p+i2-1} -- resolved by the final adder.
        value += sum(s[(p, i2)] << (p + i2 - 2) for i2 in range(2, p + 1))
        value += sum(c[(p, i2)] << (p + i2 - 1) for i2 in range(1, p + 1))
        return value


def _multiply(a: int, b: int, p: int) -> int:
    return CarrySaveMultiplier(p).multiply(a, b)


def carrysave_structure(p: LinExpr | int | None = None) -> ArithmeticStructure:
    """The carry-save structure: ``δ̄₁=[1,0]ᵀ (a, c)``, ``δ̄₂=[0,1]ᵀ (b)``,
    ``δ̄₃=[1,-1]ᵀ (s)``, second carry direction ``[2,0]ᵀ``."""
    p = S("p") if p is None else as_linexpr(p)
    return ArithmeticStructure(
        name="carry-save",
        index_set=IndexSet([1, 1], [p, p], ("i1", "i2")),
        delta_a=(1, 0),
        delta_b=(0, 1),
        delta_s=(1, -1),
        delta_carry=(1, 0),
        delta_carry2=(2, 0),
        multiply=_multiply,
    )
