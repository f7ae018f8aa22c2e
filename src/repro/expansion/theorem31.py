"""Theorem 3.1: compositional derivation of bit-level dependence structures.

Given a word-level algorithm in the model (3.5) with dependence matrix
``D_w = [h̄₁ (x), h̄₂ (y), h̄₃ (z)]`` over ``J_w``, and an arithmetic
structure ``(J_as, D_as)`` with roles ``δ̄₁`` (multiplicand), ``δ̄₂``
(multiplier), ``δ̄₃`` (partial sum), carry direction and second-carry
direction ``δ̄₄``, the bit-level dependence structure is assembled directly:

.. math::

    J = J_w \\times J_{as}, \\qquad
    D = \\begin{bmatrix} D_w & \\mathbf{0} & \\bar 0 \\\\
                         \\mathbf{0} & D_{as} & \\bar δ_4 \\end{bmatrix}

with the validity conditions of eqs. (3.11b)/(3.11c):

=====  ==============  ===================  =====================
col    vector          Expansion I          Expansion II
=====  ==============  ===================  =====================
d̄₁    ``[h̄₁,0,0]``   ``i₁ = 1``           ``i₁ = 1``
d̄₂    ``[h̄₂,0,0]``   ``i₂ = 1``           ``i₂ = 1``
d̄₃    ``[h̄₃,0,0]``   uniform              ``i₁ = p or i₂ = 1``
d̄₄    ``[0̄,δ̄₁]``    ``i₁ ≠ 1``           ``i₁ ≠ 1``
d̄₅    ``[0̄,δ̄₂]``    ``i₂ ≠ 1``           ``i₂ ≠ 1``
d̄₆    ``[0̄,δ̄₃]``    ``j_n = u_n``        uniform
d̄₇    ``[0̄,δ̄₄]``    ``q̄₁``              ``i₁ = p``
=====  ==============  ===================  =====================

where ``q̄₁`` is ``j_n = u_n and (i₁ ≠ 1 or i₂ ∉ {1,2})``.  The whole
construction touches a constant number of symbols -- no Diophantine systems,
no index-set enumeration -- which is the point of the paper.
"""

from __future__ import annotations

from repro.arith.registry import get_structure
from repro.arith.structure import ArithmeticStructure
from repro.expansion.expansions import Expansion, get_expansion
from repro.ir.builders import matmul_word_structure, word_model_structure
from repro.structures.algorithm import Algorithm, ComputationSet
from repro.structures.conditions import And, Condition, Eq, Ne, Or, TRUE
from repro.structures.dependence import DependenceMatrix, DependenceVector
from repro.structures.params import LinExpr, as_linexpr

__all__ = ["bit_level_structure", "matmul_bit_level"]


def _word_vector(word: Algorithm, cause: str) -> DependenceVector:
    found = word.dependences.by_cause(cause)
    if len(found) != 1:
        raise ValueError(
            f"word-level algorithm must have exactly one dependence vector "
            f"caused by {cause!r}; found {len(found)}"
        )
    vec = found[0]
    if not vec.is_uniform:
        raise ValueError(
            f"model (3.5) requires the word-level {cause!r} dependence to be "
            "uniform"
        )
    return vec


def _entry_condition(delta: tuple[int, int], ax_i1: int, ax_i2: int) -> Condition:
    """Validity of a lattice-pipelining vector: invalid on the entry band.

    A bit arriving along ``δ̄`` is absent where its source would fall outside
    the lattice on the *first* band (e.g. ``δ̄ = [0,1]ᵀ`` is invalid at
    ``i₂ = 1``), which is how the paper annotates d̄₄/d̄₅.
    """
    conds: list[Condition] = []
    for axis, step in ((ax_i1, delta[0]), (ax_i2, delta[1])):
        for band in range(1, step + 1):
            conds.append(Ne(axis, band))
    if not conds:
        return TRUE
    return And(*conds) if len(conds) > 1 else conds[0]


def bit_level_structure(
    word: Algorithm,
    arith: ArithmeticStructure | str = "add-shift",
    expansion: str | Expansion = "II",
    p: LinExpr | int | None = None,
) -> Algorithm:
    """Assemble the bit-level dependence structure per Theorem 3.1.

    The construction touches a constant number of symbols, so its result
    is not persisted: building it is cheaper than reading it from disk.

    Parameters
    ----------
    word:
        A word-level algorithm in the model (3.5): exactly one uniform
        dependence vector for each of the causes ``x``, ``y``, ``z``.
    arith:
        An :class:`~repro.arith.structure.ArithmeticStructure` or a registry
        name (``"add-shift"``, ``"carry-save"``).
    expansion:
        ``"I"`` or ``"II"`` (or an :class:`Expansion` descriptor).
    p:
        Word length used when ``arith`` is given by name (symbolic ``p``
        when omitted).

    Returns
    -------
    Algorithm
        The ``(n+2)``-dimensional bit-level algorithm ``(J, D, E)`` with
        symbolic validity conditions, columns merged exactly as the paper
        merges them (identical vector + validity ⇒ one column, union of
        causes).
    """
    exp = get_expansion(expansion)
    if isinstance(arith, str):
        arith = get_structure(arith, p)

    n = word.dim
    ax_i1, ax_i2 = n, n + 1
    ax_jn = n - 1
    u_n = word.index_set.uppers[-1]
    p_expr = as_linexpr(arith.index_set.uppers[0])

    h1 = _word_vector(word, "x")
    h2 = _word_vector(word, "y")
    h3 = _word_vector(word, "z")

    if exp.key == "I":
        val_d3: Condition = TRUE
        val_d6: Condition = Eq(ax_jn, u_n)
        val_d7: Condition = And(
            Eq(ax_jn, u_n),
            Or(Ne(ax_i1, 1), And(Ne(ax_i2, 1), Ne(ax_i2, 2))),
        )
    else:
        val_d3 = Or(Eq(ax_i1, p_expr), Eq(ax_i2, 1))
        val_d6 = TRUE
        val_d7 = Eq(ax_i1, p_expr)

    columns = [
        # d̄₁, d̄₂, d̄₃: word-level vectors suffixed with [0, 0].
        h1.with_validity(Eq(ax_i1, 1)).suffixed(2),
        h2.with_validity(Eq(ax_i2, 1)).suffixed(2),
        h3.with_validity(val_d3).suffixed(2),
        # d̄₄, d̄₅: arithmetic pipelining vectors prefixed with 0̄.
        DependenceVector(
            arith.delta_a, ("x",), _entry_condition(arith.delta_a, ax_i1, ax_i2)
        ).prefixed(n, axis_offset=0),
        DependenceVector(
            arith.delta_b, ("y",), _entry_condition(arith.delta_b, ax_i1, ax_i2)
        ).prefixed(n, axis_offset=0),
        DependenceVector(
            arith.delta_carry,
            ("c",),
            _entry_condition(arith.delta_carry, ax_i1, ax_i2),
        ).prefixed(n, axis_offset=0),
        # d̄₆: the partial-sum collapse.
        DependenceVector(arith.delta_s, ("z",), val_d6).prefixed(
            n, axis_offset=0
        ),
        # d̄₇: the second carry δ̄₄.
        DependenceVector(arith.delta_carry2, ("c'",), val_d7).prefixed(
            n, axis_offset=0
        ),
    ]
    # Re-attach validity conditions computed in full bit-level axes (the
    # prefixed() call above already shifted none since axis_offset=0 and the
    # conditions were built with absolute axes).
    merged: dict[tuple[tuple[int, ...], Condition], set[str]] = {}
    order: list[tuple[tuple[int, ...], Condition]] = []
    for col in columns:
        key = (col.vector, col.validity)
        if key not in merged:
            merged[key] = set()
            order.append(key)
        merged[key] |= set(col.causes)
    dep = DependenceMatrix(
        DependenceVector(vec, sorted(merged[(vec, cond)]), cond)
        for vec, cond in order
    )

    index_set = word.index_set.product(arith.index_set)
    comp = ComputationSet(
        {
            "S_x": "pipeline x bits (word axis at i1=1, lattice axis elsewhere)",
            "S_y": "pipeline y bits (word axis at i2=1, lattice axis elsewhere)",
            "S_sum": f"bit summation per {exp.title}",
        }
    )
    name = f"{word.name}/bit-level-{arith.name}-exp{exp.key}"
    return Algorithm(index_set, dep, comp, name)


def matmul_bit_level(
    u: LinExpr | int | None = None,
    p: LinExpr | int | None = None,
    expansion: str | Expansion = "II",
    arith: str = "add-shift",
) -> Algorithm:
    """Example 3.1: the bit-level matrix multiplication structure.

    With the defaults this reproduces eqs. (3.12)/(3.13): the 5-D index set
    ``{1 <= j1,j2,j3 <= u, 1 <= i1,i2 <= p}`` and the seven dependence
    vectors with their validity conditions under Expansion II.
    """
    return bit_level_structure(matmul_word_structure(u), arith, expansion, p)


def bit_level_from_vectors(
    h1,
    h2,
    h3,
    lowers,
    uppers,
    p: LinExpr | int | None = None,
    expansion: str | Expansion = "II",
    arith: str = "add-shift",
) -> Algorithm:
    """Convenience: Theorem 3.1 for a model (3.5) given by raw vectors."""
    word = word_model_structure(h1, h2, h3, lowers, uppers)
    return bit_level_structure(word, arith, expansion, p)
