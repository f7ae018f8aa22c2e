"""Tests for ripple-carry adders, sequential multipliers, and the registry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.registry import get_structure, list_structures, register_structure
from repro.arith.ripple import RippleCarryAdder
from repro.arith.sequential import (
    SequentialAddShift,
    SequentialCarrySave,
    word_multiplier_cycles,
)
from repro.arith.structure import ArithmeticStructure
from repro.structures.indexset import IndexSet


class TestRippleAdder:
    def test_basic(self):
        adder = RippleCarryAdder(4)
        assert adder.add(5, 6) == (11, 0)

    def test_carry_out(self):
        adder = RippleCarryAdder(4)
        assert adder.add(15, 1) == (0, 1)

    def test_carry_in(self):
        adder = RippleCarryAdder(4)
        assert adder.add(5, 6, carry_in=1) == (12, 0)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 1))
    def test_exact(self, a, b, cin):
        s, c = RippleCarryAdder(8).add(a, b, cin)
        assert s + (c << 8) == a + b + cin

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            RippleCarryAdder(0)


class TestSequentialMultipliers:
    @pytest.mark.parametrize("cls", [SequentialAddShift, SequentialCarrySave])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_exhaustive_small(self, cls, p):
        m = cls(p)
        for a in range(1 << p):
            for b in range(1 << p):
                assert m.multiply(a, b) == a * b

    @pytest.mark.parametrize("cls", [SequentialAddShift, SequentialCarrySave])
    def test_operand_range_checked(self, cls):
        with pytest.raises(ValueError):
            cls(3).multiply(8, 1)

    def test_addshift_cycles_quadratic(self):
        # t_b = p(2p + 1): quadratic in p.
        assert SequentialAddShift(4).cycles == 4 * 9
        assert SequentialAddShift(8).cycles == 8 * 17

    def test_carrysave_cycles_linear(self):
        # t_b = 3p: linear in p.
        assert SequentialCarrySave(4).cycles == 12
        assert SequentialCarrySave(8).cycles == 24

    def test_cycle_helper(self):
        assert word_multiplier_cycles("add-shift", 5) == SequentialAddShift(5).cycles
        assert word_multiplier_cycles("carry-save", 5) == SequentialCarrySave(5).cycles
        with pytest.raises(ValueError):
            word_multiplier_cycles("booth", 5)

    def test_ratio_grows_with_p(self):
        # The O(p²)/O(p) gap the speedup claim rests on.
        r4 = word_multiplier_cycles("add-shift", 4) / word_multiplier_cycles("carry-save", 4)
        r16 = word_multiplier_cycles("add-shift", 16) / word_multiplier_cycles("carry-save", 16)
        assert r16 > 2.5 * r4

    @given(st.integers(5, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sequential_sampled(self, p, data):
        a = data.draw(st.integers(0, (1 << p) - 1))
        b = data.draw(st.integers(0, (1 << p) - 1))
        assert SequentialAddShift(p).multiply(a, b) == a * b
        assert SequentialCarrySave(p).multiply(a, b) == a * b


class TestRegistry:
    def test_builtins_present(self):
        assert set(list_structures()) >= {"add-shift", "carry-save"}

    def test_get(self):
        s = get_structure("add-shift", 4)
        assert s.name == "add-shift"
        assert s.index_set.size({}) == 16

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            get_structure("booth")

    def test_register_and_replace(self):
        def factory(p=None):
            return ArithmeticStructure(
                name="custom",
                index_set=IndexSet([1, 1], [2, 2]),
                delta_a=(1, 0),
                delta_b=(0, 1),
                delta_s=(1, -1),
                delta_carry=(0, 1),
                delta_carry2=(0, 2),
                multiply=lambda a, b, p: a * b,
            )

        register_structure("custom-test", factory)
        assert "custom-test" in list_structures()
        with pytest.raises(ValueError):
            register_structure("custom-test", factory)
        register_structure("custom-test", factory, replace=True)
        assert get_structure("custom-test").name == "custom"
