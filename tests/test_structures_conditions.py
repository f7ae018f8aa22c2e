"""Tests for repro.structures.conditions (validity predicate algebra)."""

import pytest

from repro.structures.conditions import And, Eq, FALSE, Ne, Not, Or, TRUE
from repro.structures.params import S


class TestAtoms:
    def test_true_everywhere(self):
        assert TRUE.holds((1, 2, 3), {})

    def test_false_nowhere(self):
        assert not FALSE.holds((1, 2, 3), {})

    def test_eq_concrete(self):
        c = Eq(0, 1)
        assert c.holds((1, 5), {})
        assert not c.holds((2, 5), {})

    def test_eq_symbolic(self):
        c = Eq(1, S("p"))
        assert c.holds((9, 3), {"p": 3})
        assert not c.holds((9, 4), {"p": 3})

    def test_ne_concrete(self):
        c = Ne(0, 1)
        assert not c.holds((1,), {})
        assert c.holds((2,), {})

    def test_ne_symbolic(self):
        c = Ne(0, S("u"))
        assert c.holds((3,), {"u": 4})
        assert not c.holds((4,), {"u": 4})


class TestCombinators:
    def test_and(self):
        c = And(Eq(0, 1), Ne(1, 2))
        assert c.holds((1, 3), {})
        assert not c.holds((1, 2), {})
        assert not c.holds((2, 3), {})

    def test_or(self):
        c = Or(Eq(0, 1), Eq(1, 1))
        assert c.holds((1, 9), {})
        assert c.holds((9, 1), {})
        assert not c.holds((9, 9), {})

    def test_not(self):
        c = Not(Eq(0, 1))
        assert not c.holds((1,), {})
        assert c.holds((2,), {})

    def test_operator_sugar(self):
        c = Eq(0, 1) & Ne(1, 1)
        assert isinstance(c, And)
        c2 = Eq(0, 1) | Eq(0, 2)
        assert isinstance(c2, Or)
        c3 = ~Eq(0, 1)
        assert isinstance(c3, Not)

    def test_and_flattens(self):
        inner = And(Eq(0, 1), Eq(1, 1))
        outer = And(inner, Eq(2, 1))
        assert len(outer.terms) == 3

    def test_or_flattens(self):
        outer = Or(Or(Eq(0, 1), Eq(1, 1)), Eq(2, 1))
        assert len(outer.terms) == 3

    def test_and_dedupes(self):
        c = And(Eq(0, 1), Eq(0, 1))
        assert len(c.terms) == 1

    def test_and_drops_true(self):
        c = And(TRUE, Eq(0, 1))
        assert len(c.terms) == 1

    def test_empty_and_is_true(self):
        assert And().holds((5,), {})

    def test_empty_or_is_false(self):
        assert not Or().holds((5,), {})


class TestShiftAxes:
    def test_eq_shift(self):
        assert Eq(0, 1).shift_axes(2) == Eq(2, 1)

    def test_ne_shift(self):
        assert Ne(1, S("p")).shift_axes(3) == Ne(4, S("p"))

    def test_true_shift(self):
        assert TRUE.shift_axes(5) is TRUE

    def test_compound_shift(self):
        c = And(Eq(0, 1), Or(Ne(1, 2), Eq(2, 3)))
        shifted = c.shift_axes(1)
        assert shifted.holds((9, 1, 3, 9), {})
        assert not shifted.holds((9, 2, 2, 9), {})

    def test_shift_preserves_semantics(self):
        c = Or(Eq(0, S("p")), Ne(1, 1))
        s = c.shift_axes(2)
        point = (7, 7, 3, 2)
        assert s.holds(point, {"p": 3}) == c.holds(point[2:], {"p": 3})


class TestEqualityHash:
    def test_eq_equality(self):
        assert Eq(0, S("p")) == Eq(0, S("p"))
        assert Eq(0, 1) != Eq(1, 1)
        assert Eq(0, 1) != Ne(0, 1)

    def test_and_order_insensitive(self):
        assert And(Eq(0, 1), Ne(1, 2)) == And(Ne(1, 2), Eq(0, 1))

    def test_or_order_insensitive(self):
        assert Or(Eq(0, 1), Eq(1, 1)) == Or(Eq(1, 1), Eq(0, 1))

    def test_hashable(self):
        s = {TRUE, FALSE, Eq(0, 1), Ne(0, 1), And(Eq(0, 1)), Or(Eq(0, 1))}
        assert len(s) == 6

    def test_not_equality(self):
        assert Not(Eq(0, 1)) == Not(Eq(0, 1))
        assert Not(Eq(0, 1)) != Not(Eq(0, 2))


class TestPaperConditions:
    """The specific validity predicates appearing in the paper."""

    def test_q2_boundary_expansion2(self):
        # q̄₂: i1 = p or i2 = 1, in a 5-D bit-level point (axes 3, 4).
        p = S("p")
        q2 = Or(Eq(3, p), Eq(4, 1))
        assert q2.holds((1, 1, 1, 3, 2), {"p": 3})   # southern
        assert q2.holds((1, 1, 1, 2, 1), {"p": 3})   # eastern
        assert not q2.holds((1, 1, 1, 2, 2), {"p": 3})

    def test_q1_expansion1(self):
        # q̄₁: j = u and (i1 != 1 or i2 not in {1, 2}); 1-D model axes 0,1,2.
        u = S("u")
        q1 = And(Eq(0, u), Or(Ne(1, 1), And(Ne(2, 1), Ne(2, 2))))
        assert q1.holds((4, 2, 1), {"u": 4})
        assert q1.holds((4, 1, 3), {"u": 4})
        assert not q1.holds((4, 1, 2), {"u": 4})
        assert not q1.holds((3, 2, 3), {"u": 4})
