"""Tests for repro.ir.program (statements, guards, loop nests)."""

import pytest

from repro.ir.builders import matmul_naive, matmul_pipelined
from repro.ir.expr import var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.structures.conditions import Eq, Ne
from repro.structures.indexset import IndexSet
from repro.structures.params import S


class TestArrayAccess:
    def test_element(self):
        acc = ArrayAccess("x", [var("j1") - 1, var("j2")])
        assert acc.element({"j1": 3, "j2": 5}, {}) == ("x", (2, 5))

    def test_symbolic_offset(self):
        acc = ArrayAccess("x", [var("i") + S("p")])
        assert acc.element({"i": 1}, {"p": 4}) == ("x", (5,))

    def test_rank(self):
        assert ArrayAccess("z", [var("a"), var("b"), var("c")]).rank == 3

    def test_equality(self):
        a = ArrayAccess("x", [var("j")])
        b = ArrayAccess("x", [var("j")])
        assert a == b and hash(a) == hash(b)
        assert a != ArrayAccess("y", [var("j")])


class TestStatement:
    def test_unguarded_always_active(self):
        s = Statement("S", ArrayAccess("x", [var("j")]))
        assert s.active_at((1,), {})

    def test_guarded(self):
        s = Statement(
            "S", ArrayAccess("x", [var("j"), var("i")]),
            guard=Eq(1, 1),
        )
        assert s.active_at((9, 1), {})
        assert not s.active_at((9, 2), {})

    def test_symbolic_guard(self):
        s = Statement(
            "S", ArrayAccess("x", [var("j")]), guard=Ne(0, S("u"))
        )
        assert s.active_at((3,), {"u": 4})
        assert not s.active_at((4,), {"u": 4})


class TestLoopNest:
    def test_matmul_shape(self):
        prog = matmul_pipelined()
        assert prog.dim == 3
        assert prog.index_names == ("j1", "j2", "j3")
        assert len(prog.statements) == 3

    def test_axis(self):
        prog = matmul_pipelined()
        assert prog.axis("j2") == 1
        with pytest.raises(ValueError):
            prog.axis("nope")

    def test_point_env(self):
        prog = matmul_pipelined()
        assert prog.point_env((1, 2, 3)) == {"j1": 1, "j2": 2, "j3": 3}

    def test_arrays(self):
        prog = matmul_pipelined()
        assert prog.arrays_written() == {"x", "y", "z"}

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            LoopNest(("a",), IndexSet.cube(2, 3), [])

    def test_single_assignment_pipelined(self):
        assert matmul_pipelined().verify_single_assignment({"u": 3})

    def test_single_assignment_naive_holds(self):
        # Program (2.2) is already single-assignment (z has 3 subscripts).
        assert matmul_naive().verify_single_assignment({"u": 3})

    def test_single_assignment_violation_detected(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [3], ("j",)),
            [Statement("S", ArrayAccess("z", [const0 := j - j]))],
        )
        # Every iteration writes z(0): not single-assignment.
        assert not prog.verify_single_assignment({})

    def test_guards_partition(self):
        # Two statements with complementary guards: exactly one active.
        i = var("i")
        prog = LoopNest(
            ("i",),
            IndexSet([1], [4], ("i",)),
            [
                Statement("A", ArrayAccess("x", [i]), guard=Eq(0, 1)),
                Statement("B", ArrayAccess("x", [i]), guard=Ne(0, 1)),
            ],
        )
        assert prog.verify_single_assignment({})

    def test_repr(self):
        assert "matmul" in repr(matmul_pipelined())
