"""Tests for repro.ir.transform: broadcast elimination, and the
single-assignment premise it needs."""

import pytest

from repro.depanalysis import analyze
from repro.ir import builders
from repro.ir.expr import var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.ir.transform import broadcast_directions, eliminate_broadcasts
from repro.structures.indexset import IndexSet


def accumulation_matmul() -> LoopNest:
    """The original accumulation form of Example 2.1 (writes z(j1,j2))."""
    j1, j2, j3 = var("j1"), var("j2"), var("j3")
    return LoopNest(
        ("j1", "j2", "j3"),
        IndexSet.cube(3, 3),
        [
            Statement(
                "S_z",
                ArrayAccess("z", [j1, j2]),
                [
                    ArrayAccess("z", [j1, j2]),
                    ArrayAccess("x", [j1, j3]),
                    ArrayAccess("y", [j3, j2]),
                ],
            )
        ],
        "matmul-2.1",
    )


class TestSingleAssignment:
    def test_accumulation_is_not_single_assignment(self):
        assert not accumulation_matmul().verify_single_assignment({})


class TestBroadcastElimination:
    def test_matmul_directions(self):
        dirs = broadcast_directions(builders.matmul_naive())
        assert dirs == {"x": [0, 1, 0], "y": [1, 0, 0]}

    def test_addshift_directions_eq_33(self):
        dirs = broadcast_directions(builders.addshift_broadcast())
        assert dirs == {"a": [1, 0], "b": [0, 1]}

    def test_matmul_elimination_reproduces_23(self):
        nb = eliminate_broadcasts(builders.matmul_naive(3))
        res = analyze(nb, {"u": 3}, "exact")
        assert res.vectors_by_variable() == {
            "x": {(0, 1, 0)},
            "y": {(1, 0, 0)},
            "z": {(0, 0, 1)},
        }

    def test_addshift_elimination_reproduces_33(self):
        nb = eliminate_broadcasts(builders.addshift_broadcast(3))
        res = analyze(nb, {"p": 3}, "exact")
        assert res.vectors_by_variable() == {
            "a": {(1, 0)},
            "b": {(0, 1)},
            "c": {(0, 1)},
            "s": {(1, -1)},
        }

    def test_output_is_single_assignment(self):
        nb = eliminate_broadcasts(builders.matmul_naive(2))
        assert nb.verify_single_assignment({"u": 2})

    def test_pipelining_statements_prepended(self):
        nb = eliminate_broadcasts(builders.matmul_naive())
        names = [s.name for s in nb.statements]
        assert "S_x_pipe" in names and "S_y_pipe" in names
        assert names.index("S_x_pipe") < names.index("S_z")

    def test_no_broadcast_is_identity_on_reads(self):
        prog = builders.matmul_pipelined(3)
        nb = eliminate_broadcasts(prog)
        assert len(nb.statements) == len(prog.statements)

    def test_directions_lexicographically_positive(self):
        for d in broadcast_directions(builders.matmul_naive()).values():
            first = next(x for x in d if x != 0)
            assert first > 0

    def test_multidim_broadcast_rejected(self):
        # v(j1) read in a 3-D nest: 2-dimensional broadcast space.
        j1 = var("j1")
        prog = LoopNest(
            ("j1", "j2", "j3"),
            IndexSet.cube(3, 2),
            [Statement("S", ArrayAccess("w", [j1, var("j2"), var("j3")]),
                       [ArrayAccess("v", [j1])])],
        )
        with pytest.raises(NotImplementedError):
            broadcast_directions(prog)
