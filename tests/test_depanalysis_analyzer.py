"""Tests for the top-level analyzers: exact vs enumerate cross-check."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.depanalysis import analyze
from repro.depanalysis.pairs import AnalysisResult, DependenceInstance, PointSet
from repro.ir import builders
from repro.ir.expand import expand_bit_level
from repro.ir.expr import var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.structures.indexset import IndexSet


class TestAgreement:
    """The two independent analyzer implementations must agree exactly."""

    PROGRAMS = [
        (builders.matmul_pipelined(3), {"u": 3}),
        (builders.addshift_pipelined(4), {"p": 4}),
        (builders.model_1d(1, 1, 1, upper=5), {}),
        (builders.model_1d(2, 1, 3, upper=7), {}),
        (builders.word_model([1, 0], [1, -1], [0, 1], [1, 1], [4, 3]), {}),
    ]

    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_exact_equals_enumerate(self, prog, binding):
        exact = analyze(prog, binding, "exact")
        enum = analyze(prog, binding, "enumerate")
        assert set(exact.instances) == set(enum.instances)

    def test_expanded_program_agreement(self):
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        exact = analyze(prog, {}, "exact")
        enum = analyze(prog, {}, "enumerate")
        assert set(exact.instances) == set(enum.instances)

    def test_screens_do_not_change_result(self):
        prog = builders.matmul_pipelined(3)
        with_screens = analyze(prog, {"u": 3}, "exact", use_screens=True)
        without = analyze(prog, {"u": 3}, "exact", use_screens=False)
        assert set(with_screens.instances) == set(without.instances)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            analyze(builders.matmul_pipelined(2), {"u": 2}, "magic")


class TestInstanceSemantics:
    def test_instance_source(self):
        inst = DependenceInstance((3, 3), (1, 0), "x")
        assert inst.source == (2, 3)

    def test_flow_count_matmul(self):
        res = analyze(builders.matmul_pipelined(3), {"u": 3}, "enumerate")
        # 3 vectors, each with (u-1)*u² = 18 edges.
        assert len(res.instances) == 54
        assert all(i.kind == "flow" for i in res.instances)

    def test_edge_set(self):
        res = analyze(builders.model_1d(upper=3), {}, "enumerate")
        edges = {(i.source, i.sink) for i in res.instances}
        assert ((1,), (2,)) in edges and ((2,), (3,)) in edges

    def test_sinks_of(self):
        res = analyze(builders.model_1d(upper=4), {}, "enumerate")
        sinks = {i.sink for i in res.instances if i.vector == (1,)}
        assert sinks == {(2,), (3,), (4,)}

    def test_to_dependence_matrix(self):
        # The paper's D_as of eq. (3.4), with its causes and the validity
        # of the (1, -1) sum chain, read off the instances.
        res = analyze(builders.addshift_pipelined(3), {"p": 3}, "enumerate")
        assert set(res.distinct_vectors()) == {(1, 0), (0, 1), (1, -1)}
        causes = {i.variable for i in res.instances if i.vector == (0, 1)}
        assert causes == {"b", "c"}
        # Validity of (1, -1): s-chain sinks have i1 >= 2, i2 <= p-1.
        sinks = {i.sink for i in res.instances if i.vector == (1, -1)}
        assert {(2, 1), (3, 2)} <= sinks
        assert (1, 2) not in sinks

    def test_stats_present(self):
        res = analyze(builders.matmul_pipelined(2), {"u": 2}, "exact")
        assert res.stats["systems_solved"] > 0
        assert res.stats["instances"] == len(res.instances)

    def test_repr(self):
        res = analyze(builders.model_1d(upper=3), {}, "enumerate")
        assert "instances" in repr(res)


class TestPointSet:
    def test_holds(self):
        ps = PointSet([(1, 2), (3, 4)])
        assert ps.holds((1, 2), {})
        assert not ps.holds((2, 2), {})

    def test_equality_hash(self):
        assert PointSet([(1,)]) == PointSet([(1,)])
        assert len({PointSet([(1,)]), PointSet([(1,)])}) == 1

    def test_shift_axes(self):
        # A shifted point set tests the *suffix* of the probe point: the
        # set {(2, 3)} shifted by 1 holds at any (x, 2, 3).
        ps = PointSet([(2, 3)]).shift_axes(1)
        assert ps.offset == 1
        assert ps.holds((9, 2, 3), {})
        assert not ps.holds((2, 3, 9), {})

    def test_shift_axes_composes(self):
        ps = PointSet([(5,)]).shift_axes(1).shift_axes(2)
        assert ps.offset == 3
        assert ps.holds((0, 0, 0, 5), {})

    def test_shift_axes_equality_and_repr(self):
        assert PointSet([(1,)]).shift_axes(2) == PointSet([(1,)], offset=2)
        assert PointSet([(1,)], offset=2) != PointSet([(1,)])
        assert "offset=2" in repr(PointSet([(1,)], offset=2))

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            PointSet([(1,)], offset=-1)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            PointSet([(1,), (1, 2)])


class TestErrorPaths:
    def test_non_single_assignment_detected(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [3], ("j",)),
            [Statement("S", ArrayAccess("z", [j - j]))],
        )
        with pytest.raises(ValueError):
            analyze(prog, {}, "enumerate")

    def test_reversed_dependence_classified(self):
        # Read of a *later* iteration's value: x(j) = f(x(j + 1)).
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [4], ("j",)),
            [Statement("S", ArrayAccess("x", [j]), [ArrayAccess("x", [j + 1])])],
        )
        res = analyze(prog, {}, "enumerate")
        assert all(i.kind == "reversed" for i in res.instances)
        res_exact = analyze(prog, {}, "exact")
        assert set(res.instances) == set(res_exact.instances)


class TestRandomizedCrossCheck:
    """Property: the two analyzers agree on random uniform-shift programs."""

    @given(
        st.lists(st.integers(-2, 2), min_size=2, max_size=2),
        st.lists(st.integers(-2, 2), min_size=2, max_size=2),
        st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_two_statement_program(self, shift_a, shift_b, size):
        j1, j2 = var("j1"), var("j2")
        prog = LoopNest(
            ("j1", "j2"),
            IndexSet.cube(2, size),
            [
                Statement(
                    "A",
                    ArrayAccess("a", [j1, j2]),
                    [ArrayAccess("a", [j1 - shift_a[0], j2 - shift_a[1]])],
                ),
                Statement(
                    "B",
                    ArrayAccess("b", [j1, j2]),
                    [
                        ArrayAccess("b", [j1 - shift_b[0], j2 - shift_b[1]]),
                        ArrayAccess("a", [j1, j2]),
                    ],
                ),
            ],
        )
        exact = analyze(prog, {}, "exact")
        enum = analyze(prog, {}, "enumerate")
        assert set(exact.instances) == set(enum.instances)
