"""The Baugh-Wooley two's-complement multiplier.

The paper's multipliers handle nonnegative integers; real signal-processing
workloads (the convolution/DCT/DFT applications the paper's model targets)
need signed words.  The classical bit-level answer is the Baugh-Wooley
scheme: a ``p x p`` lattice *identical in shape* to the add-shift array --
hence with the same dependence structure, so Theorem 3.1 applies verbatim --
in which the partial products involving exactly one sign bit are inverted
and two correction bits are injected:

.. math::

    a \\cdot b \\equiv \\sum_{i,j<p-1} a_i b_j 2^{i+j}
        + \\sum_{j<p-1} \\overline{a_{p-1} b_j}\\, 2^{p-1+j}
        + \\sum_{i<p-1} \\overline{a_i b_{p-1}}\\, 2^{p-1+i}
        + a_{p-1} b_{p-1} 2^{2p-2} + 2^p + 2^{2p-1} \\pmod{2^{2p}}

for ``p``-bit two's-complement operands, the result read as a signed
``2p``-bit word.  The evaluator below computes exactly that with a
column-compression bit heap (the hardware's compressor tree), bit-exactly
for every operand pair.
"""

from __future__ import annotations

import numpy as _np

from repro.arith.structure import ArithmeticStructure
from repro.structures.indexset import IndexSet
from repro.structures.params import LinExpr, S, as_linexpr

__all__ = ["BaughWooleyMultiplier", "baughwooley_structure"]


class BaughWooleyMultiplier:
    """Bit-exact signed multiplier for ``p``-bit two's-complement words."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("Baugh-Wooley needs p >= 2 (a sign bit plus data)")
        self.p = int(p)

    def _operand_bits(self, value: int, name: str) -> list[int]:
        p = self.p
        lo, hi = -(1 << (p - 1)), (1 << (p - 1)) - 1
        if not lo <= value <= hi:
            raise ValueError(f"{name}={value} outside the {p}-bit signed range")
        return [(value >> k) & 1 for k in range(p)]  # two's complement bits

    def partial_product_bits(self, a: int, b: int) -> dict[int, list[int]]:
        """The Baugh-Wooley bit heap: position (0-based) -> list of bits."""
        p = self.p
        a_bits = self._operand_bits(a, "a")
        b_bits = self._operand_bits(b, "b")
        heap: dict[int, list[int]] = {}

        def drop(pos: int, bit: int) -> None:
            heap.setdefault(pos, []).append(bit)

        for i in range(p - 1):
            for j in range(p - 1):
                drop(i + j, a_bits[i] & b_bits[j])
        for j in range(p - 1):
            drop(p - 1 + j, 1 - (a_bits[p - 1] & b_bits[j]))
        for i in range(p - 1):
            drop(p - 1 + i, 1 - (a_bits[i] & b_bits[p - 1]))
        drop(2 * p - 2, a_bits[p - 1] & b_bits[p - 1])
        drop(p, 1)  # correction constants
        drop(2 * p - 1, 1)
        return heap

    def multiply(self, a: int, b: int) -> int:
        """The exact signed product ``a * b``."""
        p = self.p
        heap = self.partial_product_bits(a, b)
        # Column compression, exactly as a compressor tree would.
        total = 0
        for pos, bits in heap.items():
            total += sum(bits) << pos
        total &= (1 << (2 * p)) - 1
        # Interpret as a signed 2p-bit word.
        if total >> (2 * p - 1):
            total -= 1 << (2 * p)
        return total

    def multiply_block(self, a, b):
        """:meth:`multiply` over whole operand blocks: the Baugh-Wooley
        heap evaluated with array arithmetic (inverted sign-row/column
        partial products and the two correction constants included), so a
        scheme bug would corrupt the batched results exactly as it would
        the scalar ones."""
        p = self.p
        if 2 * p > 62:
            return [self.multiply(int(x), int(y)) for x, y in zip(a, b)]
        a = _np.asarray(a, dtype=_np.int64)
        b = _np.asarray(b, dtype=_np.int64)
        lo, hi = -(1 << (p - 1)), (1 << (p - 1)) - 1
        for value, name in ((a, "a"), (b, "b")):
            bad = (value < lo) | (value > hi)
            if bad.any():
                k = int(_np.argmax(bad))
                raise ValueError(
                    f"{name}={int(value[k])} outside the {p}-bit signed range"
                )
        shifts = _np.arange(p, dtype=_np.int64)
        a_bits = (a[:, None] >> shifts) & 1  # arithmetic shift: 2's complement
        b_bits = (b[:, None] >> shifts) & 1
        core_w = (
            1 << (shifts[: p - 1, None] + shifts[None, : p - 1])
        ).astype(_np.int64)
        total = (
            (a_bits[:, : p - 1, None] & b_bits[:, None, : p - 1]) * core_w
        ).sum(axis=(1, 2))
        sign_w = (1 << (p - 1 + shifts[: p - 1])).astype(_np.int64)
        total += ((1 - (a_bits[:, p - 1 :] & b_bits[:, : p - 1])) * sign_w).sum(axis=1)
        total += ((1 - (a_bits[:, : p - 1] & b_bits[:, p - 1 :])) * sign_w).sum(axis=1)
        total += (a_bits[:, p - 1] & b_bits[:, p - 1]) << (2 * p - 2)
        total += (1 << p) + (1 << (2 * p - 1))  # correction constants
        total &= (1 << (2 * p)) - 1
        return _np.where(
            (total >> (2 * p - 1)) != 0, total - (1 << (2 * p)), total
        )


def _multiply(a: int, b: int, p: int) -> int:
    return BaughWooleyMultiplier(p).multiply(a, b)


def baughwooley_structure(p: LinExpr | int | None = None) -> ArithmeticStructure:
    """Dependence structure of the Baugh-Wooley lattice.

    Geometrically identical to add-shift (same ``p x p`` lattice, same
    carry/sum movement); only the cell Boolean functions differ, which the
    dependence-level machinery never sees.
    """
    p = S("p") if p is None else as_linexpr(p)
    return ArithmeticStructure(
        name="baugh-wooley",
        index_set=IndexSet([1, 1], [p, p], ("i1", "i2")),
        delta_a=(1, 0),
        delta_b=(0, 1),
        delta_s=(1, -1),
        delta_carry=(0, 1),
        delta_carry2=(0, 2),
        multiply=_multiply,
    )
