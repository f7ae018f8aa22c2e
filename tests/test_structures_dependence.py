"""Tests for repro.structures.dependence."""

import pytest

from repro.structures.conditions import Eq, Ne, TRUE
from repro.structures.dependence import DependenceMatrix, DependenceVector


class TestDependenceVector:
    def test_uniform_by_default(self):
        v = DependenceVector([1, 0], ("x",))
        assert v.is_uniform
        assert v.valid_at((5, 5), {})

    def test_conditional(self):
        v = DependenceVector([0, 1], ("y",), Eq(0, 1))
        assert not v.is_uniform
        assert v.valid_at((1, 9), {})
        assert not v.valid_at((2, 9), {})

    def test_dim(self):
        assert DependenceVector([1, 2, 3]).dim == 3

    def test_prefixed_vector(self):
        v = DependenceVector([1, -1], ("s",), Ne(0, 1))
        pv = v.prefixed(3)
        assert pv.vector == (0, 0, 0, 1, -1)
        # Validity axis shifted by 3 by default.
        assert pv.valid_at((9, 9, 9, 2, 5), {})
        assert not pv.valid_at((9, 9, 9, 1, 5), {})

    def test_prefixed_axis_offset_zero(self):
        v = DependenceVector([1, 0], ("a",), Eq(3, 1))
        pv = v.prefixed(3, axis_offset=0)
        assert pv.vector == (0, 0, 0, 1, 0)
        assert pv.validity == Eq(3, 1)

    def test_suffixed(self):
        v = DependenceVector([1, 0, 0], ("y",), Eq(4, 1))
        sv = v.suffixed(2)
        assert sv.vector == (1, 0, 0, 0, 0)
        assert sv.validity == Eq(4, 1)  # axes unchanged

    def test_with_validity(self):
        v = DependenceVector([1], ("x",)).with_validity(Eq(0, 2))
        assert not v.is_uniform

    def test_equality_cause_order_insensitive(self):
        a = DependenceVector([0, 1], ("y", "c"))
        b = DependenceVector([0, 1], ("c", "y"))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_by_validity(self):
        a = DependenceVector([0, 1], ("y",), TRUE)
        b = DependenceVector([0, 1], ("y",), Ne(1, 1))
        assert a != b


class TestDependenceMatrix:
    def make_addshift(self):
        # D_as of eq. (3.4).
        return DependenceMatrix(
            [
                DependenceVector([1, 0], ("a",)),
                DependenceVector([0, 1], ("b", "c")),
                DependenceVector([1, -1], ("s",)),
            ]
        )

    def test_container(self):
        d = self.make_addshift()
        assert len(d) == 3
        assert d[0].vector == (1, 0)
        assert [v.vector for v in d] == [(1, 0), (0, 1), (1, -1)]

    def test_dim(self):
        assert self.make_addshift().dim == 2

    def test_columns(self):
        assert self.make_addshift().columns() == [(1, 0), (0, 1), (1, -1)]

    def test_uniform(self):
        assert self.make_addshift().is_uniform

    def test_not_uniform(self):
        d = DependenceMatrix([DependenceVector([1], (), Eq(0, 1))])
        assert not d.is_uniform

    def test_by_cause(self):
        d = self.make_addshift()
        assert [v.vector for v in d.by_cause("c")] == [(0, 1)]
        assert d.by_cause("nope") == []

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError):
            DependenceMatrix(
                [DependenceVector([1]), DependenceVector([1, 2])]
            )

    def test_valid_vectors_at(self):
        d = DependenceMatrix(
            [
                DependenceVector([1, 0], ("a",), Eq(0, 1)),
                DependenceVector([0, 1], ("b",), TRUE),
            ]
        )
        assert len(d.valid_vectors_at((1, 5), {})) == 2
        assert len(d.valid_vectors_at((2, 5), {})) == 1

    def test_empty_matrix(self):
        d = DependenceMatrix([])
        assert len(d) == 0
        assert d.dim == 0
        assert d.is_uniform
