"""Tests for the add-shift and carry-save lattice multipliers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.addshift import AddShiftMultiplier, addshift_structure
from repro.arith.carrysave import CarrySaveMultiplier, carrysave_structure
from repro.structures.params import S


class TestAddShiftFunctional:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_exhaustive(self, p):
        m = AddShiftMultiplier(p)
        for a in range(1 << p):
            for b in range(1 << p):
                assert m.multiply(a, b) == a * b

    @given(st.integers(5, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sampled_large(self, p, data):
        a = data.draw(st.integers(0, (1 << p) - 1))
        b = data.draw(st.integers(0, (1 << p) - 1))
        assert AddShiftMultiplier(p).multiply(a, b) == a * b

    def test_result_bits_width(self):
        bits = AddShiftMultiplier(3).result_bits(7, 7)
        assert len(bits) == 6  # 2p bits including the final carry

    def test_paper_output_map(self):
        # s_i = s(i,1) for i <= p; s(p, i-p+1) for p < i <= 2p-1.
        p = 3
        m = AddShiftMultiplier(p)
        t = m.trace(5, 3)
        bits = m.result_bits(5, 3)
        assert bits[0] == t["s"][(1, 1)]
        assert bits[2] == t["s"][(3, 1)]
        assert bits[3] == t["s"][(3, 2)]
        assert bits[4] == t["s"][(3, 3)]

    def test_boundary_reroute_needed(self):
        # 7 x 7 at p = 3 loses the weight-16 carry without the completion.
        m = AddShiftMultiplier(3)
        t = m.trace(7, 7)
        assert any(t["rerouted"].values())
        assert m.multiply(7, 7) == 49

    def test_carry_out_is_top_bit(self):
        m = AddShiftMultiplier(2)
        t = m.trace(3, 3)  # 9 = 1001b
        assert t["carry_out"] == 1

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            AddShiftMultiplier(0)

    def test_operand_too_wide(self):
        with pytest.raises(ValueError):
            AddShiftMultiplier(2).multiply(4, 1)


class TestCarrySaveFunctional:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_exhaustive(self, p):
        m = CarrySaveMultiplier(p)
        for a in range(1 << p):
            for b in range(1 << p):
                assert m.multiply(a, b) == a * b

    @given(st.integers(5, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sampled_large(self, p, data):
        a = data.draw(st.integers(0, (1 << p) - 1))
        b = data.draw(st.integers(0, (1 << p) - 1))
        assert CarrySaveMultiplier(p).multiply(a, b) == a * b

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            CarrySaveMultiplier(0)


class TestStructures:
    def test_addshift_structure_34(self):
        s = addshift_structure()
        assert s.delta_a == (1, 0)
        assert s.delta_b == (0, 1)
        assert s.delta_carry == (0, 1)
        assert s.delta_s == (1, -1)
        assert s.delta_carry2 == (0, 2)
        assert s.index_set.bounds({"p": 4}) == [(1, 4), (1, 4)]

    def test_addshift_matrix_merges_b_and_c(self):
        mat = addshift_structure().dependence_matrix()
        by_vec = {v.vector: set(v.causes) for v in mat}
        assert by_vec == {
            (1, 0): {"a"},
            (0, 1): {"b", "c"},
            (1, -1): {"s"},
        }

    def test_carrysave_matrix_merges_a_and_c(self):
        mat = carrysave_structure().dependence_matrix()
        by_vec = {v.vector: set(v.causes) for v in mat}
        assert by_vec == {
            (1, 0): {"a", "c"},
            (0, 1): {"b"},
            (1, -1): {"s"},
        }

    def test_distinct_vectors(self):
        assert addshift_structure().distinct_vectors() == [
            (0, 1), (1, -1), (1, 0)
        ]

    def test_concrete_p(self):
        s = addshift_structure(5)
        assert s.index_set.size({}) == 25

    def test_executable_semantics(self):
        s = addshift_structure()
        assert s.multiply(6, 7, 4) == 42
        cs = carrysave_structure()
        assert cs.multiply(6, 7, 4) == 42

    def test_symbolic_upper_bound(self):
        s = addshift_structure()
        assert s.index_set.uppers[0] == S("p")
