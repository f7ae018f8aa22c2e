"""Sequential word-level multipliers with cycle accounting.

The speedup comparison of Section 4.2 measures the best word-level systolic
array, whose per-PE cost ``t_b`` is "the time for multiplying two integers
and adding two integers" using a *sequential* arithmetic algorithm inside
each word-level processor:

* **add-shift** -- ``p`` conditional shifted additions, each a ``2p``-bit
  ripple-carry add: ``t_b = O(p²)``;
* **carry-save** -- ``p`` carry-save compression steps (constant time each)
  plus one final ``2p``-bit carry-propagate add: ``t_b = O(p)``.

Both classes compute exact products *and* report a deterministic worst-case
cycle count (data-independent, as a hardware datapath would be clocked), so
the word-level baseline can be both simulated and costed.
"""

from __future__ import annotations

import numpy as _np

from repro.arith.ripple import RippleCarryAdder

__all__ = ["SequentialAddShift", "SequentialCarrySave", "word_multiplier_cycles"]


def _check_block_operands(a, b, p: int):
    """Vectorized range check shared by the block multipliers."""
    a = _np.asarray(a, dtype=_np.int64)
    b = _np.asarray(b, dtype=_np.int64)
    hi = 1 << p
    if ((a < 0) | (a >= hi) | (b < 0) | (b >= hi)).any():
        raise ValueError("operands exceed the word length")
    return a, b


class SequentialAddShift:
    """Shift-and-add multiplier: ``p`` iterations of a ``2p``-bit ripple add."""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("word length p must be positive")
        self.p = int(p)
        self._adder = RippleCarryAdder(2 * p)

    def multiply(self, a: int, b: int) -> int:
        """Exact product via shift-and-add (checked against ``a*b``)."""
        p = self.p
        if not (0 <= a < (1 << p) and 0 <= b < (1 << p)):
            raise ValueError("operands exceed the word length")
        acc = 0
        for i in range(p):
            if (b >> i) & 1:
                acc, carry = self._adder.add(acc, (a << i) & ((1 << (2 * p)) - 1))
                if carry:
                    raise AssertionError("2p-bit accumulator overflow")
        return acc

    def multiply_block(self, a, b):
        """:meth:`multiply` over whole operand blocks (one shifted-add
        sweep per bit position, each addition done block-wide) -- the
        compiled word-level program's batched multiply.  Falls back to the
        scalar loop when ``2p`` exceeds a machine word."""
        p = self.p
        if 2 * p > 62:
            return [self.multiply(int(x), int(y)) for x, y in zip(a, b)]
        a, b = _check_block_operands(a, b, p)
        mask = (1 << (2 * p)) - 1
        acc = _np.zeros_like(a)
        for i in range(p):
            acc = acc + _np.where((b >> i) & 1 == 1, (a << i) & mask, 0)
            if (acc > mask).any():
                raise AssertionError("2p-bit accumulator overflow")
        return acc

    @property
    def cycles(self) -> int:
        """Worst-case cycle count: ``p`` ripple additions of ``2p`` bits
        plus one shift cycle per iteration -- ``p * (2p + 1) = O(p²)``."""
        return self.p * (2 * self.p + 1)


class SequentialCarrySave:
    """Carry-save multiplier: ``p`` constant-time compressions + final CPA."""

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("word length p must be positive")
        self.p = int(p)
        self._adder = RippleCarryAdder(2 * p)

    def multiply(self, a: int, b: int) -> int:
        """Exact product via redundant (sum, carry) accumulation."""
        p = self.p
        if not (0 <= a < (1 << p) and 0 <= b < (1 << p)):
            raise ValueError("operands exceed the word length")
        mask = (1 << (2 * p)) - 1
        s = 0  # redundant sum word
        c = 0  # redundant carry word (already weighted)
        for i in range(p):
            pp = (a << i) & mask if (b >> i) & 1 else 0
            new_s = s ^ c ^ pp
            new_c = (((s & c) | (c & pp) | (pp & s)) << 1) & mask
            s, c = new_s, new_c
        out, carry = self._adder.add(s, c)
        if carry:
            raise AssertionError("2p-bit accumulator overflow")
        return out

    def multiply_block(self, a, b):
        """:meth:`multiply` over whole operand blocks: the redundant
        ``(sum, carry)`` compression runs block-wide per bit position and
        the final carry-propagate add is one vector add.  Falls back to the
        scalar loop when ``2p`` exceeds a machine word."""
        p = self.p
        if 2 * p > 62:
            return [self.multiply(int(x), int(y)) for x, y in zip(a, b)]
        a, b = _check_block_operands(a, b, p)
        mask = (1 << (2 * p)) - 1
        s = _np.zeros_like(a)
        c = _np.zeros_like(a)
        for i in range(p):
            pp = _np.where((b >> i) & 1 == 1, (a << i) & mask, 0)
            new_s = s ^ c ^ pp
            new_c = (((s & c) | (c & pp) | (pp & s)) << 1) & mask
            s, c = new_s, new_c
        out = s + c
        if (out > mask).any():
            raise AssertionError("2p-bit accumulator overflow")
        return out

    @property
    def cycles(self) -> int:
        """Worst-case cycle count: ``p`` one-cycle compressions plus a
        ``2p``-bit carry-propagate add -- ``p + 2p = 3p = O(p)``."""
        return 3 * self.p


def word_multiplier_cycles(kind: str, p: int) -> int:
    """``t_b`` for the named sequential arithmetic algorithm.

    ``kind`` is ``"add-shift"`` or ``"carry-save"``.
    """
    if kind == "add-shift":
        return SequentialAddShift(p).cycles
    if kind == "carry-save":
        return SequentialCarrySave(p).cycles
    raise ValueError(f"unknown word multiplier kind {kind!r}")
