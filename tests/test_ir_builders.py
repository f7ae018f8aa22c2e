"""Tests for repro.ir.builders: each builder reproduces its paper equation."""

import pytest

from repro.depanalysis import analyze
from repro.ir import builders


class TestMatmulPrograms:
    def test_naive_structure(self):
        prog = builders.matmul_naive(3)
        assert prog.dim == 3
        assert len(prog.statements) == 1

    def test_pipelined_dependences_eq_24(self):
        res = analyze(builders.matmul_pipelined(3), {"u": 3}, "exact")
        assert res.vectors_by_variable() == {
            "x": {(0, 1, 0)},
            "y": {(1, 0, 0)},
            "z": {(0, 0, 1)},
        }

    def test_naive_broadcast_reads(self):
        # x(j1,j3) and y(j3,j2) are rank-2 reads in a 3-D nest (broadcasts).
        prog = builders.matmul_naive()
        stmt = prog.statements[0]
        ranks = {acc.array: acc.rank for acc in stmt.reads}
        assert ranks["x"] == 2 and ranks["y"] == 2 and ranks["z"] == 3

    def test_word_structure_eq_24(self):
        alg = builders.matmul_word_structure()
        cols = {tuple(v.vector): set(v.causes) for v in alg.dependences}
        assert cols == {
            (1, 0, 0): {"y"},
            (0, 1, 0): {"x"},
            (0, 0, 1): {"z"},
        }
        assert alg.is_uniform


class TestAddShiftPrograms:
    def test_pipelined_dependences_eq_34(self):
        res = analyze(builders.addshift_pipelined(4), {"p": 4}, "exact")
        assert res.vectors_by_variable() == {
            "a": {(1, 0)},
            "b": {(0, 1)},
            "c": {(0, 1)},
            "s": {(1, -1)},
        }

    def test_broadcast_form_has_rank1_reads(self):
        prog = builders.addshift_broadcast()
        reads = {
            acc.array: acc.rank
            for s in prog.statements
            for acc in s.reads
        }
        assert reads["a"] == 1 and reads["b"] == 1

    def test_single_assignment(self):
        assert builders.addshift_pipelined(3).verify_single_assignment({"p": 3})


class TestModelBuilders:
    def test_model_1d_vectors(self):
        res = analyze(builders.model_1d(2, 1, 1, upper=6), {}, "exact")
        assert res.vectors_by_variable() == {
            "x": {(2,)},
            "y": {(1,)},
            "z": {(1,)},
        }

    def test_word_model_matches_structure(self):
        h1, h2, h3 = [1, 0], [1, -1], [0, 1]
        prog = builders.word_model(h1, h2, h3, [1, 1], [4, 3])
        res = analyze(prog, {}, "exact")
        alg = builders.word_model_structure(h1, h2, h3, [1, 1], [4, 3])
        assert set(res.distinct_vectors()) == {
            tuple(v.vector) for v in alg.dependences
        }

    def test_word_model_dim_mismatch(self):
        with pytest.raises(ValueError):
            builders.word_model([1], [1, 0], [1], [1], [3])

    def test_convolution_structure(self):
        alg = builders.convolution_word_structure(5, 3)
        cols = {tuple(v.vector): set(v.causes) for v in alg.dependences}
        assert cols == {
            (1, 0): {"x"},
            (1, -1): {"y"},
            (0, 1): {"z"},
        }
        assert alg.index_set.bounds({}) == [(1, 5), (1, 3)]

    def test_convolution_reuses_weights_along_j1(self):
        # The dependence analysis of the convolution program agrees with
        # the declared structure.
        prog = builders.word_model([1, 0], [1, -1], [0, 1], [1, 1], [5, 3])
        res = analyze(prog, {}, "enumerate")
        assert (1, -1) in res.vectors_by_variable()["y"]
