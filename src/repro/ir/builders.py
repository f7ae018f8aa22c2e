"""Builders for the paper's concrete programs and word-level structures.

Each builder returns either a :class:`~repro.ir.program.LoopNest` (the
program form used by the general dependence analyzer) or an
:class:`~repro.structures.algorithm.Algorithm` (the distilled ``(J, D, E)``
triplet), mirroring the equations of the paper:

* :func:`matmul_naive` -- program (2.2): single-assignment matmul with
  broadcasts of ``x`` and ``y``;
* :func:`matmul_pipelined` -- program (2.3): broadcast-free pipelined matmul;
* :func:`matmul_word_structure` -- the triplet (2.4);
* :func:`addshift_broadcast` / :func:`addshift_pipelined` -- programs (3.1)
  and (3.3) for the add-shift multiplier;
* :func:`model_1d` -- the 1-D model (3.7);
* :func:`word_model` / :func:`word_model_structure` -- the general model
  (3.5)/(3.6);
* :func:`convolution_word_structure`, :func:`lu_word_structure` -- further
  instances of model (3.5) named in the paper's applicability list.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.expr import AffineExpr, var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.structures.algorithm import Algorithm, ComputationSet
from repro.structures.conditions import TRUE
from repro.structures.dependence import DependenceMatrix, DependenceVector
from repro.structures.indexset import IndexSet
from repro.structures.params import LinExpr, S, as_linexpr

__all__ = [
    "matmul_naive",
    "matmul_pipelined",
    "matmul_word_structure",
    "addshift_broadcast",
    "addshift_pipelined",
    "model_1d",
    "word_model",
    "word_model_structure",
    "convolution_word_structure",
    "lu_word_structure",
]


def matmul_naive(u: LinExpr | int | None = None) -> LoopNest:
    """Program (2.2): single-assignment matmul, with broadcasts.

    ``z(j1,j2,j3) = z(j1,j2,j3-1) + x(j1,j3) * y(j3,j2)`` over the cube
    ``1 <= j1,j2,j3 <= u``.  Data ``x(j1,j3)`` is needed by all ``j2`` (a
    broadcast), and ``y(j3,j2)`` by all ``j1``.
    """
    u = S("u") if u is None else as_linexpr(u)
    j1, j2, j3 = var("j1"), var("j2"), var("j3")
    body = [
        Statement(
            "S_z",
            ArrayAccess("z", [j1, j2, j3]),
            [
                ArrayAccess("z", [j1, j2, j3 - 1]),
                ArrayAccess("x", [j1, j3]),
                ArrayAccess("y", [j3, j2]),
            ],
            description="z(j1,j2,j3) = z(j1,j2,j3-1) + x(j1,j3)*y(j3,j2)",
        )
    ]
    return LoopNest(("j1", "j2", "j3"), IndexSet.cube(3, u), body, "matmul-2.2")


def matmul_pipelined(u: LinExpr | int | None = None) -> LoopNest:
    """Program (2.3): broadcast-free pipelined matrix multiplication.

    ``x`` is pipelined along the ``j2`` axis, ``y`` along ``j1``, and ``z``
    accumulates along ``j3``.
    """
    u = S("u") if u is None else as_linexpr(u)
    j1, j2, j3 = var("j1"), var("j2"), var("j3")
    body = [
        Statement(
            "S_x",
            ArrayAccess("x", [j1, j2, j3]),
            [ArrayAccess("x", [j1, j2 - 1, j3])],
            description="x(j̄) = x(j̄ - [0,1,0]ᵀ)",
        ),
        Statement(
            "S_y",
            ArrayAccess("y", [j1, j2, j3]),
            [ArrayAccess("y", [j1 - 1, j2, j3])],
            description="y(j̄) = y(j̄ - [1,0,0]ᵀ)",
        ),
        Statement(
            "S_z",
            ArrayAccess("z", [j1, j2, j3]),
            [
                ArrayAccess("z", [j1, j2, j3 - 1]),
                ArrayAccess("x", [j1, j2, j3]),
                ArrayAccess("y", [j1, j2, j3]),
            ],
            description="z(j̄) = z(j̄ - [0,0,1]ᵀ) + x(j̄)·y(j̄)",
        ),
    ]
    return LoopNest(("j1", "j2", "j3"), IndexSet.cube(3, u), body, "matmul-2.3")


def matmul_word_structure(u: LinExpr | int | None = None) -> Algorithm:
    """The triplet (2.4) for pipelined word-level matrix multiplication.

    ``D`` columns (paper order): ``y: [1,0,0]``, ``x: [0,1,0]``,
    ``z: [0,0,1]``; all uniform.
    """
    u = S("u") if u is None else as_linexpr(u)
    dep = DependenceMatrix(
        [
            DependenceVector([1, 0, 0], ("y",), TRUE),
            DependenceVector([0, 1, 0], ("x",), TRUE),
            DependenceVector([0, 0, 1], ("z",), TRUE),
        ]
    )
    comp = ComputationSet(
        {
            "S_x": "x(j̄) = x(j̄ - d̄₂)",
            "S_y": "y(j̄) = y(j̄ - d̄₁)",
            "S_z": "z(j̄) = z(j̄ - d̄₃) + x(j̄)·y(j̄)",
        }
    )
    return Algorithm(IndexSet.cube(3, u), dep, comp, "matmul-word-level")


def addshift_broadcast(p: LinExpr | int | None = None) -> LoopNest:
    """Program (3.1): add-shift multiplication with broadcasts.

    ``a(i2)`` is broadcast down each column (all ``i1``) and ``b(i1)`` across
    each row (all ``i2``); carry moves east-to-west (``i2`` direction) and the
    partial sum along ``δ̄₃ = [1,-1]``.
    """
    p = S("p") if p is None else as_linexpr(p)
    i1, i2 = var("i1"), var("i2")
    reads_cs = [
        ArrayAccess("a", [i2]),
        ArrayAccess("b", [i1]),
        ArrayAccess("c", [i1, i2 - 1]),
        ArrayAccess("s", [i1 - 1, i2 + 1]),
    ]
    body = [
        Statement(
            "S_c",
            ArrayAccess("c", [i1, i2]),
            reads_cs,
            description="c(ī) = g(a(i2)∧b(i1), c(i1,i2-1), s(i1-1,i2+1))",
        ),
        Statement(
            "S_s",
            ArrayAccess("s", [i1, i2]),
            reads_cs,
            description="s(ī) = f(a(i2)∧b(i1), c(i1,i2-1), s(i1-1,i2+1))",
        ),
    ]
    return LoopNest(
        ("i1", "i2"), IndexSet.cube(2, p, 1).rename(("i1", "i2")), body,
        "add-shift-3.1",
    )


def addshift_pipelined(p: LinExpr | int | None = None) -> LoopNest:
    """Program (3.3): broadcast-free add-shift multiplier.

    Adds pipelining statements ``a(ī)=a(ī-δ̄₁)`` and ``b(ī)=b(ī-δ̄₂)`` with
    ``δ̄₁=[1,0]ᵀ``, ``δ̄₂=[0,1]ᵀ``, ``δ̄₃=[1,-1]ᵀ``.
    """
    p = S("p") if p is None else as_linexpr(p)
    i1, i2 = var("i1"), var("i2")
    reads_cs = [
        ArrayAccess("a", [i1, i2]),
        ArrayAccess("b", [i1, i2]),
        ArrayAccess("c", [i1, i2 - 1]),
        ArrayAccess("s", [i1 - 1, i2 + 1]),
    ]
    body = [
        Statement(
            "S_a",
            ArrayAccess("a", [i1, i2]),
            [ArrayAccess("a", [i1 - 1, i2])],
            description="a(ī) = a(ī - δ̄₁), δ̄₁ = [1,0]ᵀ",
        ),
        Statement(
            "S_b",
            ArrayAccess("b", [i1, i2]),
            [ArrayAccess("b", [i1, i2 - 1])],
            description="b(ī) = b(ī - δ̄₂), δ̄₂ = [0,1]ᵀ",
        ),
        Statement(
            "S_c",
            ArrayAccess("c", [i1, i2]),
            reads_cs,
            description="c(ī) = g(a(ī)∧b(ī), c(ī-δ̄₂), s(ī-δ̄₃))",
        ),
        Statement(
            "S_s",
            ArrayAccess("s", [i1, i2]),
            reads_cs,
            description="s(ī) = f(a(ī)∧b(ī), c(ī-δ̄₂), s(ī-δ̄₃))",
        ),
    ]
    return LoopNest(
        ("i1", "i2"), IndexSet.cube(2, p, 1).rename(("i1", "i2")), body,
        "add-shift-3.3",
    )


def model_1d(
    h1: int = 1,
    h2: int = 1,
    h3: int = 1,
    lower: LinExpr | int = 1,
    upper: LinExpr | int | None = None,
) -> LoopNest:
    """The 1-D model (3.7): ``z(j) = z(j-h3) + x(j-h1 ...)·y(...)``."""
    upper = S("u") if upper is None else as_linexpr(upper)
    j = var("j")
    body = [
        Statement(
            "S_x", ArrayAccess("x", [j]), [ArrayAccess("x", [j - h1])],
            description=f"x(j) = x(j - {h1})",
        ),
        Statement(
            "S_y", ArrayAccess("y", [j]), [ArrayAccess("y", [j - h2])],
            description=f"y(j) = y(j - {h2})",
        ),
        Statement(
            "S_z",
            ArrayAccess("z", [j]),
            [
                ArrayAccess("z", [j - h3]),
                ArrayAccess("x", [j]),
                ArrayAccess("y", [j]),
            ],
            description=f"z(j) = z(j - {h3}) + x(j)·y(j)",
        ),
    ]
    return LoopNest(("j",), IndexSet([lower], [upper], ("j",)), body, "model-3.7")


def word_model(
    h1: Sequence[int],
    h2: Sequence[int],
    h3: Sequence[int],
    lowers: Sequence[LinExpr | int],
    uppers: Sequence[LinExpr | int],
) -> LoopNest:
    """The general word-level model (3.5) as a program.

    ``x(j̄)=x(j̄-h̄₁); y(j̄)=y(j̄-h̄₂); z(j̄)=z(j̄-h̄₃)+x(j̄)·y(j̄)``.
    """
    n = len(h1)
    if not (len(h2) == len(h3) == len(lowers) == len(uppers) == n):
        raise ValueError("h̄ vectors and bounds must share one dimension")
    names = tuple(f"j{i + 1}" for i in range(n))
    idx = [var(name) for name in names]

    def shifted(h: Sequence[int]) -> list[AffineExpr]:
        return [idx[k] - int(h[k]) for k in range(n)]

    body = [
        Statement(
            "S_x", ArrayAccess("x", idx), [ArrayAccess("x", shifted(h1))],
            description="x(j̄) = x(j̄ - h̄₁)",
        ),
        Statement(
            "S_y", ArrayAccess("y", idx), [ArrayAccess("y", shifted(h2))],
            description="y(j̄) = y(j̄ - h̄₂)",
        ),
        Statement(
            "S_z",
            ArrayAccess("z", idx),
            [
                ArrayAccess("z", shifted(h3)),
                ArrayAccess("x", idx),
                ArrayAccess("y", idx),
            ],
            description="z(j̄) = z(j̄ - h̄₃) + x(j̄)·y(j̄)",
        ),
    ]
    return LoopNest(names, IndexSet(lowers, uppers, names), body, "model-3.5")


def word_model_structure(
    h1: Sequence[int],
    h2: Sequence[int],
    h3: Sequence[int],
    lowers: Sequence[LinExpr | int],
    uppers: Sequence[LinExpr | int],
    name: str = "word-model",
) -> Algorithm:
    """The triplet (3.6) for the general model (3.5)."""
    dep = DependenceMatrix(
        [
            DependenceVector(h1, ("x",), TRUE),
            DependenceVector(h2, ("y",), TRUE),
            DependenceVector(h3, ("z",), TRUE),
        ]
    )
    names = tuple(f"j{i + 1}" for i in range(len(h1)))
    comp = ComputationSet(
        {
            "S_x": "x(j̄) = x(j̄ - h̄₁)",
            "S_y": "y(j̄) = y(j̄ - h̄₂)",
            "S_z": "z(j̄) = z(j̄ - h̄₃) + x(j̄)·y(j̄)",
        }
    )
    return Algorithm(IndexSet(lowers, uppers, names), dep, comp, name)


def convolution_word_structure(
    n_points: LinExpr | int | None = None,
    taps: LinExpr | int | None = None,
) -> Algorithm:
    """Word-level 1-D convolution as an instance of model (3.5).

    ``z(j1) = sum_{j2} w(j2) · x(j1 + j2 - 1)``: the weight ``w(j2)`` is
    reused along ``j1`` (``h̄₁ = [1,0]``), the signal sample ``x(j1+j2-1)`` is
    constant along the antidiagonal (``h̄₂ = [1,-1]``), and the accumulation
    runs along ``j2`` (``h̄₃ = [0,1]``).
    """
    n_points = S("u") if n_points is None else as_linexpr(n_points)
    taps = S("k") if taps is None else as_linexpr(taps)
    return word_model_structure(
        [1, 0], [1, -1], [0, 1], [1, 1], [n_points, taps], "convolution-word-level"
    )


def lu_word_structure(n: LinExpr | int | None = None) -> Algorithm:
    """Word-level LU decomposition (Gentleman-Kung, no pivoting).

    The paper's motivating list includes LU decomposition; unlike matmul
    its iteration space is *triangular*:

    .. math:: J = \\{ (i, j, k) : 1 \\le k \\le n,\\;
              k \\le i \\le n,\\; k \\le j \\le n \\}

    with the familiar unit dependence vectors -- ``u(k, j)`` pipelined down
    the columns (``[1,0,0]``), ``l(i, k)`` across the rows (``[0,1,0]``),
    and the active submatrix updated along ``k`` (``[0,0,1]``):
    ``a(i,j,k+1) = a(i,j,k) - l(i,k)·u(k,j)`` with ``l(i,k) =
    a(i,k,k)/u(k,k)`` on the ``j = k`` face.  The triangular domain is an
    exact :class:`~repro.structures.constrained.ConstrainedIndexSet`; the
    mapping machinery handles it through its enumeration fallbacks.
    """
    from repro.structures.constrained import AffineConstraint, ConstrainedIndexSet

    n = S("n") if n is None else as_linexpr(n)
    index_set = ConstrainedIndexSet(
        [1, 1, 1],
        [n, n, n],
        [
            AffineConstraint((1, 0, -1)),  # i - k >= 0
            AffineConstraint((0, 1, -1)),  # j - k >= 0
        ],
        ("i", "j", "k"),
    )
    dep = DependenceMatrix(
        [
            DependenceVector([1, 0, 0], ("u",), TRUE),
            DependenceVector([0, 1, 0], ("l",), TRUE),
            DependenceVector([0, 0, 1], ("a",), TRUE),
        ]
    )
    comp = ComputationSet(
        {
            "S_u": "u(k,j) = a(k,j,k)                       [i = k face]",
            "S_l": "l(i,k) = a(i,k,k) / u(k,k)              [j = k face]",
            "S_a": "a(i,j,k+1) = a(i,j,k) - l(i,k)·u(k,j)   [interior]",
        }
    )
    return Algorithm(index_set, dep, comp, "lu-word-level")
