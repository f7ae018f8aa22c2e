"""Tests for repro.arith.bitops."""

import pytest
from hypothesis import given, strategies as st

from repro.arith.bitops import (
    carry_bit,
    from_bits,
    full_adder,
    sum_bit,
    to_bits,
)


class TestFullAdder:
    def test_truth_table(self):
        # Eq. (3.2): g is majority, f is parity.
        for x1 in (0, 1):
            for x2 in (0, 1):
                for x3 in (0, 1):
                    total = x1 + x2 + x3
                    assert sum_bit(x1, x2, x3) == total & 1
                    assert carry_bit(x1, x2, x3) == (total >> 1) & 1

    def test_full_adder_tuple(self):
        assert full_adder(1, 1, 0) == (0, 1)
        assert full_adder(1, 1, 1) == (1, 1)
        assert full_adder(0, 0, 0) == (0, 0)

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    def test_value_conservation(self, a, b, c):
        s, cy = full_adder(a, b, c)
        assert s + 2 * cy == a + b + c


class TestBitCodec:
    def test_to_bits_little_endian(self):
        assert to_bits(6, 4) == [0, 1, 1, 0]

    def test_from_bits(self):
        assert from_bits([0, 1, 1, 0]) == 6

    def test_to_bits_overflow(self):
        with pytest.raises(ValueError):
            to_bits(16, 4)

    def test_to_bits_negative(self):
        with pytest.raises(ValueError):
            to_bits(-1, 4)

    def test_from_bits_non_bit(self):
        with pytest.raises(ValueError):
            from_bits([0, 2])

    def test_zero_width(self):
        assert to_bits(0, 0) == []
        assert from_bits([]) == 0

    @given(st.integers(0, 2**16 - 1))
    def test_roundtrip(self, v):
        assert from_bits(to_bits(v, 16)) == v

    @given(st.lists(st.integers(0, 1), max_size=20))
    def test_roundtrip_reverse(self, bits):
        assert to_bits(from_bits(bits), len(bits) + 1)[: len(bits)] == bits
