"""Tests for repro.structures.algorithm."""

import pytest

from repro.ir.builders import matmul_word_structure
from repro.structures.algorithm import Algorithm, ComputationSet
from repro.structures.conditions import Eq
from repro.structures.dependence import DependenceMatrix, DependenceVector
from repro.structures.indexset import IndexSet
from repro.structures.params import S


class TestComputationSet:
    def test_from_mapping(self):
        c = ComputationSet({"S1": "z = z + x*y"})
        assert c.names() == ["S1"]

    def test_from_pairs(self):
        c = ComputationSet([("S1", "a"), ("S2", "b")])
        assert c.names() == ["S1", "S2"]

    def test_empty(self):
        assert ComputationSet().names() == []


class TestAlgorithm:
    def test_matmul_triplet(self):
        alg = matmul_word_structure()
        assert alg.dim == 3
        assert alg.is_uniform
        assert len(alg.dependences) == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Algorithm(
                IndexSet.cube(2, 3),
                DependenceMatrix([DependenceVector([1, 0, 0])]),
            )

    def test_non_uniform(self):
        alg = Algorithm(
            IndexSet.cube(2, 3),
            [DependenceVector([1, 0], ("x",), Eq(0, 1))],
        )
        assert not alg.is_uniform

    def test_repr(self):
        alg = matmul_word_structure()
        assert "uniform" in repr(alg)
