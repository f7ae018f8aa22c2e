"""Explicit bit-level program expansion.

Given a word-level algorithm in the model (3.5) -- pipelining vectors
``h̄₁`` (for ``x``), ``h̄₂`` (for ``y``) and accumulation vector ``h̄₃``
(for ``z``) over an ``n``-dimensional index set -- and a word length ``p``,
this module generates the *explicit* ``(n+2)``-dimensional bit-level program
obtained by replacing every word-level multiply-accumulate with the add-shift
multiplier lattice of Fig. 1c, under either algorithm expansion of Fig. 2:

* **Expansion I** (Fig. 2b / Fig. 3b): the ``p²`` *partial-sum* bits of
  ``z(j̄-h̄₃)`` are forwarded position-wise into iteration ``j̄``; the
  in-lattice collapse ``δ̄₃ = [1,-1]`` runs only in the final word iteration
  ``j_n = u_n``, where second carries ``c'`` also appear.
* **Expansion II** (Fig. 2a / Fig. 3c): every word iteration runs the full
  add-shift lattice (``δ̄₃`` uniform); the ``2p-1`` *final-sum* bits of
  ``z(j̄-h̄₃)`` are injected at the lattice boundary ``i₁ = p`` or
  ``i₂ = 1``, where second carries ``c'`` appear on ``i₁ = p``.

These generated programs are what a general dependence analyzer would have to
chew through; the paper's Theorem 3.1 predicts their dependence structure
without ever materializing them.  :mod:`repro.expansion.verify` runs the
analyzer of :mod:`repro.depanalysis` over these programs to machine-check the
theorem.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.expr import AffineExpr, var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.structures.conditions import Condition, Eq, Ne, Or
from repro.structures.indexset import IndexSet
from repro.structures.params import LinExpr, S, as_linexpr

__all__ = ["expand_bit_level", "EXPANSION_I", "EXPANSION_II"]

EXPANSION_I = "I"
EXPANSION_II = "II"


def expand_bit_level(
    h1: Sequence[int],
    h2: Sequence[int],
    h3: Sequence[int],
    lowers: Sequence[LinExpr | int],
    uppers: Sequence[LinExpr | int],
    p: LinExpr | int | None = None,
    expansion: str = EXPANSION_II,
) -> LoopNest:
    """Generate the explicit bit-level program for model (3.5).

    Parameters
    ----------
    h1, h2, h3:
        Word-level dependence vectors of ``x``, ``y`` and ``z``.
    lowers, uppers:
        Bounds of the word-level index set ``J_w`` (entries may be symbolic).
    p:
        Word length (the ``i1`` and ``i2`` extents; symbolic ``p`` by
        default).
    expansion:
        ``"I"`` or ``"II"`` selecting the algorithm expansion.

    Returns
    -------
    LoopNest
        An ``(n+2)``-dimensional program over indices
        ``(j1, ..., jn, i1, i2)`` with region guards expressing where each
        propagation/summation variant applies.  Arrays:

        ``x``, ``y``
            bit pipelines (one bit per lattice point);
        ``s``
            partial-sum bits (indexed by the full bit-level point);
        ``c``
            full-adder carries flowing along ``i₂``;
        ``c2``
            second carries ``c'`` flowing along ``[0, 0, 2]``.
    """
    if expansion not in (EXPANSION_I, EXPANSION_II):
        raise ValueError(f"unknown expansion {expansion!r}; use 'I' or 'II'")
    n = len(h1)
    if not (len(h2) == len(h3) == len(lowers) == len(uppers) == n):
        raise ValueError("h̄ vectors and bounds must share one dimension")
    p = S("p") if p is None else as_linexpr(p)

    word_names = tuple(f"j{k + 1}" for k in range(n))
    names = word_names + ("i1", "i2")
    jvars = [var(name) for name in word_names]
    i1, i2 = var("i1"), var("i2")
    q: list[AffineExpr] = [*jvars, i1, i2]

    ax_i1, ax_i2 = n, n + 1  # axis positions of the lattice indices
    ax_jn = n - 1  # the innermost word axis j_n
    u_n = as_linexpr(uppers[-1])

    def shift_word(h: Sequence[int]) -> list[AffineExpr]:
        """q̄ - [h̄, 0, 0]ᵀ."""
        return [jvars[k] - int(h[k]) for k in range(n)] + [i1, i2]

    def shift_lattice(d1: int, d2: int) -> list[AffineExpr]:
        """q̄ - [0̄, d1, d2]ᵀ."""
        return [*jvars, i1 - d1, i2 - d2]

    index_set = IndexSet(list(lowers) + [1, 1], list(uppers) + [p, p], names)

    on_entry_row = Eq(ax_i1, 1)
    off_entry_row = Ne(ax_i1, 1)
    on_entry_col = Eq(ax_i2, 1)
    off_entry_col = Ne(ax_i2, 1)
    boundary = Or(Eq(ax_i1, p), Eq(ax_i2, 1))  # q̄₂ of Expansion II
    final_word = Eq(ax_jn, u_n)  # j_n = u_n of Expansion I
    not_final_word = Ne(ax_jn, u_n)

    statements: list[Statement] = [
        Statement(
            "S_x_word",
            ArrayAccess("x", q),
            [ArrayAccess("x", shift_word(h1))],
            guard=on_entry_row,
            description="x bits pipelined along j̄ (d̄₁ = [h̄₁,0,0]ᵀ, i₁ = 1)",
        ),
        Statement(
            "S_x_lat",
            ArrayAccess("x", q),
            [ArrayAccess("x", shift_lattice(1, 0))],
            guard=off_entry_row,
            description="x bits pipelined along i₁ (d̄₄, i₁ ≠ 1)",
        ),
        Statement(
            "S_y_word",
            ArrayAccess("y", q),
            [ArrayAccess("y", shift_word(h2))],
            guard=on_entry_col,
            description="y bits pipelined along j̄ (d̄₂ = [h̄₂,0,0]ᵀ, i₂ = 1)",
        ),
        Statement(
            "S_y_lat",
            ArrayAccess("y", q),
            [ArrayAccess("y", shift_lattice(0, 1))],
            guard=off_entry_col,
            description="y bits pipelined along i₂ (d̄₅, i₂ ≠ 1)",
        ),
    ]

    xy = [ArrayAccess("x", q), ArrayAccess("y", q)]
    carry_in = ArrayAccess("c", shift_lattice(0, 1))
    s_chain = ArrayAccess("s", shift_lattice(1, -1))
    z_prev = ArrayAccess("s", shift_word(h3))
    c2_in = ArrayAccess("c2", shift_lattice(0, 2))

    if expansion == EXPANSION_I:
        # Interior word iterations: carry-save accumulation of x∧y into the
        # position-wise partial sums of z(j̄ - h̄₃).
        interior_reads = [*xy, carry_in, z_prev]
        statements.append(
            Statement(
                "S_sum",
                ArrayAccess("s", q),
                interior_reads,
                guard=not_final_word,
                description="s = f(x∧y, c, z-prev partial sums); j_n ≠ u_n",
            )
        )
        statements.append(
            Statement(
                "S_carry",
                ArrayAccess("c", q),
                interior_reads,
                guard=not_final_word,
                description="c = g(x∧y, c, z-prev partial sums); j_n ≠ u_n",
            )
        )
        # Final word iteration: additionally run the δ̄₃ collapse and the
        # second carries c'.
        final_reads = [*xy, carry_in, z_prev, s_chain, c2_in]
        statements.append(
            Statement(
                "S_sum_final",
                ArrayAccess("s", q),
                final_reads,
                guard=final_word,
                description="final collapse: 5-input compressor; j_n = u_n",
            )
        )
        statements.append(
            Statement(
                "S_carry_final",
                ArrayAccess("c", q),
                final_reads,
                guard=final_word,
                description="carry of final collapse; j_n = u_n",
            )
        )
        statements.append(
            Statement(
                "S_carry2_final",
                ArrayAccess("c2", q),
                final_reads,
                guard=final_word,
                description="second carry c' (d̄₇ = [0̄,0,2]ᵀ); j_n = u_n",
            )
        )
    else:  # Expansion II
        southern = Eq(ax_i1, p)
        eastern_only = on_entry_col & Ne(ax_i1, p)
        interior_guard: Condition = Ne(ax_i1, p) & off_entry_col
        # Interior lattice points: plain add-shift full adder.
        interior_reads = [*xy, carry_in, s_chain]
        statements.append(
            Statement(
                "S_sum",
                ArrayAccess("s", q),
                interior_reads,
                guard=interior_guard,
                description="s = f(x∧y, c, s-chain); interior lattice point",
            )
        )
        statements.append(
            Statement(
                "S_carry",
                ArrayAccess("c", q),
                interior_reads,
                guard=interior_guard,
                description="c = g(x∧y, c, s-chain); interior lattice point",
            )
        )
        # Eastern boundary (i₂ = 1, i₁ ≠ p): inject the final bits of
        # z(j̄ - h̄₃), produced at the matching boundary point of the previous
        # word iteration.  No carry arrives at i₂ = 1.
        eastern_reads = [*xy, carry_in, s_chain, z_prev]
        statements.append(
            Statement(
                "S_sum_east",
                ArrayAccess("s", q),
                eastern_reads,
                guard=eastern_only,
                description="s with z(j̄-h̄₃) final-bit injection (i₂ = 1)",
            )
        )
        statements.append(
            Statement(
                "S_carry_east",
                ArrayAccess("c", q),
                eastern_reads,
                guard=eastern_only,
                description="c with z(j̄-h̄₃) final-bit injection (i₂ = 1)",
            )
        )
        # Southern hyperplane (i₁ = p): z injection plus the second carries
        # c' -- four or five bits are summed here.
        southern_reads = [*xy, carry_in, s_chain, z_prev, c2_in]
        statements.append(
            Statement(
                "S_sum_south",
                ArrayAccess("s", q),
                southern_reads,
                guard=southern,
                description="5-input compressor with z injection (i₁ = p)",
            )
        )
        statements.append(
            Statement(
                "S_carry_south",
                ArrayAccess("c", q),
                southern_reads,
                guard=southern,
                description="carry of the i₁ = p compressor",
            )
        )
        statements.append(
            Statement(
                "S_carry2",
                ArrayAccess("c2", q),
                southern_reads,
                guard=southern,
                description="second carry c' (d̄₇ = [0̄,0,2]ᵀ); i₁ = p",
            )
        )

    kind = "expI" if expansion == EXPANSION_I else "expII"
    return LoopNest(names, index_set, statements, f"bitlevel-{kind}")
