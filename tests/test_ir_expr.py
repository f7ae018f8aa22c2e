"""Tests for repro.ir.expr (affine expressions over loop indices)."""

import pytest
from hypothesis import given, strategies as st

from repro.ir.expr import AffineExpr, var
from repro.structures.params import LinExpr, S


class TestConstruction:
    def test_var(self):
        e = var("j1")
        assert e.indices() == {"j1"}
        assert e.coeff("j1") == 1
        assert not e.is_constant

    def test_const_int(self):
        e = AffineExpr({}, 5)
        assert e.is_constant
        assert e.evaluate({}, {}) == 5

    def test_const_symbolic(self):
        e = AffineExpr({}, S("p"))
        assert e.is_constant  # no loop index, though symbolic
        assert e.evaluate({}, {"p": 7}) == 7

    def test_zero_coeff_dropped(self):
        e = AffineExpr({"j": 0}, 3)
        assert e.is_constant


class TestArithmetic:
    def test_add_sub(self):
        e = var("j1") + 2 * var("j2") - 3
        assert e.evaluate({"j1": 5, "j2": 1}, {}) == 4

    def test_sub_var(self):
        e = var("j") - var("j")
        assert e.is_constant
        assert e.offset == LinExpr(0)

    def test_mul(self):
        e = (var("j") + 1) * 3
        assert e.evaluate({"j": 2}, {}) == 9

    def test_rsub(self):
        e = 5 - var("j")
        assert e.evaluate({"j": 2}, {}) == 3

    def test_symbolic_offset(self):
        e = var("i") + S("p") - 1
        assert e.evaluate({"i": 2}, {"p": 4}) == 5

    def test_add_linexpr(self):
        e = var("i") + S("u")
        assert e.evaluate({"i": 1}, {"u": 3}) == 4

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_linearity(self, a, b, c):
        e = a * var("x") + b * var("y") + c
        assert e.evaluate({"x": 2, "y": -1}, {}) == 2 * a - b + c


class TestQueries:
    def test_coeff_vector(self):
        e = var("j1") - 2 * var("j3")
        assert e.coeff_vector(("j1", "j2", "j3")) == [1, 0, -2]

    def test_coeff_absent(self):
        assert var("a").coeff("b") == 0


class TestEquality:
    def test_equal(self):
        assert var("j") + 1 == 1 + var("j")

    def test_int_equality(self):
        assert AffineExpr({}, 3) == 3

    def test_linexpr_equality(self):
        assert AffineExpr({}, S("p")) == S("p")

    def test_hash(self):
        assert len({var("j") + 1, 1 + var("j")}) == 1

    def test_repr(self):
        assert "j" in repr(var("j") - 1)
