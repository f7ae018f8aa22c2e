"""Tests for repro.util.intmath."""

import math

from hypothesis import given, strategies as st

from repro.util.intmath import ceil_div, floor_div, gcd_list

ints = st.integers(min_value=-10**6, max_value=10**6)


class TestGcdLcm:
    def test_gcd_list(self):
        assert gcd_list([12, 18, 24]) == 6

    def test_gcd_list_empty(self):
        assert gcd_list([]) == 0

    def test_gcd_list_zeros(self):
        assert gcd_list([0, 0]) == 0

    def test_gcd_list_with_negative(self):
        assert gcd_list([-4, 6]) == 2


class TestDivision:
    @given(ints, ints.filter(lambda x: x != 0))
    def test_floor_div_matches_float(self, a, b):
        assert floor_div(a, b) == math.floor(a / b)

    @given(ints, ints.filter(lambda x: x != 0))
    def test_ceil_div_matches_float(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b)

    def test_ceil_div_exact(self):
        assert ceil_div(6, 3) == 2

    def test_ceil_div_remainder(self):
        assert ceil_div(7, 3) == 3

    def test_ceil_div_negative(self):
        assert ceil_div(-7, 3) == -2
