"""Tests for repro.structures.params (linear symbolic expressions)."""

import pytest
from hypothesis import given, strategies as st

from repro.structures.params import LinExpr, S, as_linexpr


class TestConstruction:
    def test_symbol(self):
        p = S("p")
        assert not p.is_constant

    def test_constant(self):
        c = LinExpr(5)
        assert c.is_constant
        assert c.constant_value() == 5

    def test_constant_value_raises_on_symbolic(self):
        with pytest.raises(ValueError):
            S("p").constant_value()

    def test_zero_coeffs_dropped(self):
        e = LinExpr(3, {"p": 0})
        assert e.is_constant

    def test_as_linexpr_int(self):
        assert as_linexpr(7) == LinExpr(7)

    def test_as_linexpr_passthrough(self):
        e = S("u")
        assert as_linexpr(e) is e

    def test_as_linexpr_rejects_float(self):
        with pytest.raises(TypeError):
            as_linexpr(1.5)


class TestArithmetic:
    def test_add(self):
        e = S("p") + 1
        assert e.evaluate({"p": 3}) == 4

    def test_radd(self):
        e = 1 + S("p")
        assert e.evaluate({"p": 3}) == 4

    def test_sub(self):
        e = 2 * S("p") - 1
        assert e.evaluate({"p": 4}) == 7

    def test_rsub(self):
        e = 10 - S("p")
        assert e.evaluate({"p": 4}) == 6

    def test_mul(self):
        e = S("p") * 3
        assert e.evaluate({"p": 2}) == 6

    def test_rmul(self):
        assert (3 * S("p")).evaluate({"p": 2}) == 6

    def test_mul_by_constant_linexpr(self):
        assert (S("p") * LinExpr(2)).evaluate({"p": 5}) == 10

    def test_mul_symbolic_rejected(self):
        with pytest.raises(TypeError):
            S("p") * S("u")

    def test_neg(self):
        assert (-S("p")).evaluate({"p": 3}) == -3

    def test_mixed_params(self):
        e = S("p") + 2 * S("u") - 3
        assert e.evaluate({"p": 1, "u": 5}) == 8

    def test_cancellation(self):
        e = S("p") - S("p")
        assert e.is_constant
        assert e.constant_value() == 0

    @given(
        st.integers(-20, 20), st.integers(-20, 20),
        st.integers(-20, 20), st.integers(1, 20),
    )
    def test_affine_evaluation(self, a, b, c, pv):
        e = a * S("p") + b * S("u") + c
        assert e.evaluate({"p": pv, "u": 2 * pv}) == a * pv + b * 2 * pv + c


class TestEqualityHash:
    def test_equal_expressions(self):
        assert S("p") + 1 == 1 + S("p")

    def test_int_comparison(self):
        assert LinExpr(4) == 4

    def test_hash_consistency(self):
        assert hash(S("p") + 1) == hash(1 + S("p"))

    def test_inequality(self):
        assert S("p") != S("u")

    def test_usable_as_dict_key(self):
        d = {S("p"): "word length"}
        assert d[LinExpr.symbol("p")] == "word length"

    def test_evaluate_missing_param_raises(self):
        with pytest.raises(KeyError):
            S("p").evaluate({})


class TestFormatting:
    def test_str_symbol(self):
        assert str(S("p")) == "p"

    def test_str_affine(self):
        assert str(2 * S("p") - 1) == "2*p - 1"

    def test_str_negative_leading(self):
        assert str(-S("p")) == "-p"

    def test_str_zero(self):
        assert str(LinExpr(0)) == "0"
