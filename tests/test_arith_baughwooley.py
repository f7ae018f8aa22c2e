"""Tests for the Baugh-Wooley signed multiplier."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.baughwooley import BaughWooleyMultiplier, baughwooley_structure
from repro.arith.registry import get_structure, list_structures
from repro.expansion.theorem31 import bit_level_structure
from repro.ir.builders import matmul_word_structure


class TestFunctional:
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_exhaustive_signed(self, p):
        m = BaughWooleyMultiplier(p)
        lo, hi = -(1 << (p - 1)), (1 << (p - 1)) - 1
        for a in range(lo, hi + 1):
            for b in range(lo, hi + 1):
                assert m.multiply(a, b) == a * b

    @given(st.integers(6, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sampled_large(self, p, data):
        half = 1 << (p - 1)
        a = data.draw(st.integers(-half, half - 1))
        b = data.draw(st.integers(-half, half - 1))
        assert BaughWooleyMultiplier(p).multiply(a, b) == a * b

    def test_most_negative_squared(self):
        # The classic edge case: (-2^{p-1})² needs the full 2p-1 bits.
        p = 4
        m = BaughWooleyMultiplier(p)
        assert m.multiply(-8, -8) == 64

    def test_out_of_range_rejected(self):
        m = BaughWooleyMultiplier(3)
        with pytest.raises(ValueError):
            m.multiply(4, 0)
        with pytest.raises(ValueError):
            m.multiply(0, -5)

    def test_p1_rejected(self):
        with pytest.raises(ValueError):
            BaughWooleyMultiplier(1)

    def test_heap_positions_bounded(self):
        heap = BaughWooleyMultiplier(4).partial_product_bits(-3, 5)
        assert max(heap) <= 2 * 4 - 1


class TestStructure:
    def test_registered(self):
        assert "baugh-wooley" in list_structures()
        s = get_structure("baugh-wooley", 4)
        assert s.index_set.size({}) == 16

    def test_same_geometry_as_addshift(self):
        bw = baughwooley_structure()
        from repro.arith.addshift import addshift_structure

        a = addshift_structure()
        assert bw.delta_a == a.delta_a
        assert bw.delta_b == a.delta_b
        assert bw.delta_s == a.delta_s
        assert bw.delta_carry == a.delta_carry

    def test_theorem31_applies(self):
        # Because the lattice geometry is add-shift's, Theorem 3.1 yields
        # exactly the same dependence matrix (causes and conditions).
        signed = bit_level_structure(matmul_word_structure(), "baugh-wooley", "II")
        unsigned = bit_level_structure(matmul_word_structure(), "add-shift", "II")
        assert set(signed.dependences.vectors) == set(unsigned.dependences.vectors)

    def test_executable_semantics(self):
        s = get_structure("baugh-wooley")
        assert s.multiply(-3, 5, 4) == -15
