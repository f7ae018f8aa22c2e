"""Boolean bit operations: the full adder of eq. (3.2) and bit codecs.

The paper's computations at every bit-level index point are built from the
two Boolean functions

.. math::

    g(x_1, x_2, x_3) &= (x_1 \\wedge x_2) \\vee (x_2 \\wedge x_3)
                        \\vee (x_3 \\wedge x_1)  \\qquad \\text{(carry)} \\\\
    f(x_1, x_2, x_3) &= x_1 \\oplus x_2 \\oplus x_3 \\qquad \\text{(sum)}

i.e. a full adder.  Points that must sum more than three bits (Expansion II's
``i1 = p`` hyperplane, Expansion I's final word iteration) generalize it to
a small *compressor* with a second carry ``c'``.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "carry_bit",
    "sum_bit",
    "full_adder",
    "to_bits",
    "from_bits",
]


def carry_bit(x1: int, x2: int, x3: int) -> int:
    """The majority function ``g`` of eq. (3.2): the full-adder carry."""
    return (x1 & x2) | (x2 & x3) | (x3 & x1)


def sum_bit(x1: int, x2: int, x3: int) -> int:
    """The parity function ``f`` of eq. (3.2): the full-adder sum."""
    return x1 ^ x2 ^ x3


def full_adder(x1: int, x2: int, x3: int) -> tuple[int, int]:
    """Return ``(sum, carry)`` of three bits."""
    return sum_bit(x1, x2, x3), carry_bit(x1, x2, x3)


def to_bits(value: int, width: int) -> list[int]:
    """Little-endian bit decomposition: ``to_bits(v, w)[k]`` is bit ``k``.

    ``value`` must be representable in ``width`` bits (nonnegative).
    """
    if value < 0:
        raise ValueError("to_bits expects a nonnegative integer")
    if value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return [(value >> k) & 1 for k in range(width)]


def from_bits(bits: Sequence[int]) -> int:
    """Inverse of :func:`to_bits` (little-endian)."""
    out = 0
    for k, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"non-bit input {b!r}")
        out |= b << k
    return out
