"""Tests for repro.mapping.transform (mapping matrices)."""

import pytest

from repro.mapping.designs import fig4_mapping
from repro.mapping.transform import MappingMatrix
from repro.util.linalg import mat_vec


class TestStructure:
    def test_shape(self):
        t = fig4_mapping(3)
        assert t.k == 3
        assert t.n == 5

    def test_space_and_schedule_split(self):
        t = fig4_mapping(3)
        assert t.space == [[3, 0, 0, 1, 0], [0, 3, 0, 0, 1]]
        assert t.schedule == [1, 1, 1, 2, 1]

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            MappingMatrix([[1, 2], [1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MappingMatrix([])


class TestApplication:
    def test_time_of(self):
        t = fig4_mapping(3)
        assert t.time_of((1, 1, 1, 1, 1)) == 6
        assert t.time_of((3, 3, 3, 3, 3)) == 18

    def test_processor_of(self):
        t = fig4_mapping(3)
        assert t.processor_of((1, 1, 1, 1, 1)) == (4, 4)
        assert t.processor_of((2, 1, 3, 2, 1)) == (8, 4)

    def test_map_vector(self):
        t = fig4_mapping(3)
        # T·d̄₄ = (1, 0, 2): the buffered link of Fig. 4.
        assert mat_vec(t.rows, [0, 0, 0, 1, 0]) == [1, 0, 2]

    def test_linearity(self):
        t = fig4_mapping(2)
        a, b = (1, 2, 1, 2, 1), (2, 1, 2, 1, 2)
        s = tuple(x + y for x, y in zip(a, b))
        assert t.time_of(s) == t.time_of(a) + t.time_of(b)


class TestPredicates:
    def test_rank_full(self):
        assert fig4_mapping(3).rank() == 3

    def test_rank_deficient(self):
        t = MappingMatrix([[1, 0], [2, 0], [0, 0]])
        assert t.rank() == 1

    def test_coprime(self):
        assert fig4_mapping(3).entries_coprime()
        assert not MappingMatrix([[2, 4], [6, 8]]).entries_coprime()

    def test_equality_hash(self):
        assert fig4_mapping(3) == fig4_mapping(3)
        assert fig4_mapping(3) != fig4_mapping(4)
        assert len({fig4_mapping(3), fig4_mapping(3)}) == 1

    def test_instantiate_identity(self):
        t = fig4_mapping(3)
        assert t.instantiate({"p": 9}) is t

    def test_repr(self):
        assert "T-fig4" in repr(fig4_mapping(2))
