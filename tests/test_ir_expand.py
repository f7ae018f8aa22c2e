"""Tests for repro.ir.expand (the explicit bit-level program generator)."""

import pytest

from repro.depanalysis import analyze
from repro.ir.expand import EXPANSION_I, EXPANSION_II, expand_bit_level


class TestShape:
    def test_dimension(self):
        prog = expand_bit_level([1], [1], [1], [1], [4], 3)
        assert prog.dim == 3
        assert prog.index_names == ("j1", "i1", "i2")

    def test_ndim(self):
        prog = expand_bit_level(
            [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [2, 2, 2], 2
        )
        assert prog.dim == 5
        assert prog.index_names == ("j1", "j2", "j3", "i1", "i2")

    def test_index_set_size(self):
        prog = expand_bit_level([1], [1], [1], [1], [4], 3)
        assert prog.index_set.size({}) == 4 * 9

    def test_unknown_expansion_rejected(self):
        with pytest.raises(ValueError):
            expand_bit_level([1], [1], [1], [1], [3], 2, expansion="III")

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expand_bit_level([1, 0], [1], [1], [1], [3], 2)

    def test_symbolic_p(self):
        prog = expand_bit_level([1], [1], [1], [1], [4])
        assert prog.index_set.size({"p": 3}) == 4 * 9
        assert prog.index_set.size({"p": 2}) == 4 * 4


class TestGuardStructure:
    @pytest.mark.parametrize("expansion", [EXPANSION_I, EXPANSION_II])
    def test_single_assignment(self, expansion):
        prog = expand_bit_level([1], [1], [1], [1], [3], 3, expansion)
        assert prog.verify_single_assignment({})

    @pytest.mark.parametrize("expansion", [EXPANSION_I, EXPANSION_II])
    def test_every_point_has_exactly_one_sum_statement(self, expansion):
        prog = expand_bit_level([1], [1], [1], [1], [3], 3, expansion)
        sum_stmts = [s for s in prog.statements if s.write.array == "s"]
        for point in prog.index_set.points({}):
            active = [s for s in sum_stmts if s.active_at(point, {})]
            assert len(active) == 1, (point, [s.name for s in active])

    @pytest.mark.parametrize("expansion", [EXPANSION_I, EXPANSION_II])
    def test_x_pipelining_guards_partition(self, expansion):
        prog = expand_bit_level([1], [1], [1], [1], [3], 3, expansion)
        x_stmts = [s for s in prog.statements if s.write.array == "x"]
        for point in prog.index_set.points({}):
            assert sum(s.active_at(point, {}) for s in x_stmts) == 1


def _sinks(res, vector):
    return {i.sink for i in res.instances if i.vector == vector}


class TestDependenceContent:
    def test_expansion2_c2_on_southern_hyperplane(self):
        prog = expand_bit_level([1], [1], [1], [1], [3], 3, EXPANSION_II)
        res = analyze(prog, {}, "enumerate")
        sinks = _sinks(res, (0, 0, 2))
        assert sinks  # c' dependences exist
        assert all(s[1] == 3 for s in sinks)  # i1 = p
        assert all(s[2] >= 3 for s in sinks)  # source inside lattice

    def test_expansion1_c2_at_final_iteration(self):
        prog = expand_bit_level([1], [1], [1], [1], [3], 3, EXPANSION_I)
        res = analyze(prog, {}, "enumerate")
        sinks = _sinks(res, (0, 0, 2))
        assert sinks
        assert all(s[0] == 3 for s in sinks)  # j = u

    def test_expansion1_d3_uniform(self):
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, EXPANSION_I)
        res = analyze(prog, {}, "enumerate")
        # z-prev edges everywhere with j > 1 (source inside): (u-1)*p² sinks.
        z_sinks = {
            i.sink for i in res.instances
            if i.vector == (1, 0, 0) and i.variable == "s"
        }
        assert len(z_sinks) == 2 * 4  # (u-1) * p²

    def test_expansion2_d3_boundary_only(self):
        prog = expand_bit_level([1], [1], [1], [1], [3], 3, EXPANSION_II)
        res = analyze(prog, {}, "enumerate")
        z_sinks = {
            i.sink for i in res.instances
            if i.vector == (1, 0, 0) and i.variable == "s"
        }
        assert all(s[1] == 3 or s[2] == 1 for s in z_sinks)
        assert len(z_sinks) == 2 * (2 * 3 - 1)  # (u-1) * (2p-1)

    def test_expansion2_d6_uniform(self):
        prog = expand_bit_level([1], [1], [1], [1], [2], 3, EXPANSION_II)
        res = analyze(prog, {}, "enumerate")
        sinks = _sinks(res, (0, 1, -1))
        # valid wherever source is inside: i1 >= 2 and i2 <= p-1, all j.
        assert len(sinks) == 2 * 2 * 2

    def test_distinct_vector_sets_match_paper(self):
        for expansion in (EXPANSION_I, EXPANSION_II):
            prog = expand_bit_level([1], [1], [1], [1], [3], 3, expansion)
            res = analyze(prog, {}, "enumerate")
            assert set(res.distinct_vectors()) == {
                (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1), (0, 0, 2)
            }
