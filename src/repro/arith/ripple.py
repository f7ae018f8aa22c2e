"""The ripple-carry adder: the word-wise addition substrate.

The paper's technical report [7] contains "the dependence structure of an
algorithm for adding two integers"; the conference version omits it for
space.  The canonical such algorithm is the ripple-carry adder: a 1-D chain
of full adders in which the carry is the only cross-iteration dependence
(``δ̄ = [1]``).  It is included as an executable primitive, used by the
sequential word multipliers.
"""

from __future__ import annotations

from repro.arith.bitops import from_bits, full_adder, to_bits

__all__ = ["RippleCarryAdder"]


class RippleCarryAdder:
    """Bit-exact ``width``-bit ripple-carry adder with step accounting."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("adder width must be positive")
        self.width = int(width)

    def add(self, a: int, b: int, carry_in: int = 0) -> tuple[int, int]:
        """Return ``(sum mod 2^width, carry_out)``."""
        a_bits = to_bits(a, self.width)
        b_bits = to_bits(b, self.width)
        out = []
        carry = carry_in
        for k in range(self.width):
            sb, carry = full_adder(a_bits[k], b_bits[k], carry)
            out.append(sb)
        return from_bits(out), carry
