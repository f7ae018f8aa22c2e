"""The word-level baseline: the best word-level systolic matmul array [4].

A ``u x u`` mesh under ``T_w = [[1,0,0],[0,1,0],[1,1,1]]``: ``x`` words
pipeline along ``j2``, ``y`` words along ``j1``, ``z`` stays resident and
accumulates along ``j3``.  The schedule has ``3(u-1)+1`` word *beats*; each
beat performs one multiply-accumulate inside a PE using a *sequential*
arithmetic algorithm, so one beat costs ``t_b`` cycles and the total is

.. math:: t_{word} = (3(u-1)+1) \\cdot t_b

(Section 4.2).  ``t_b`` is ``O(p²)`` for add-shift and ``O(p)`` for
carry-save -- the choice that decides whether the bit-level design of Fig. 4
wins by ``O(p²)`` or by ``O(p)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arith.sequential import SequentialAddShift, SequentialCarrySave
from repro.ir.builders import matmul_word_structure
from repro.machine.simulator import SimulationResult, SpaceTimeSimulator, ValueStore
from repro.mapping.designs import word_level_mapping

__all__ = ["WordLevelMatmulMachine", "WordMatmulRun"]


@dataclass
class WordMatmulRun:
    """Result of one word-level matmul execution."""

    product: list[list[int]]
    sim: SimulationResult
    word_beats: int  # schedule length in word beats: 3(u-1)+1
    cycles_per_beat: int  # t_b of the chosen arithmetic
    total_cycles: int  # word_beats * t_b


class WordLevelMatmulMachine:
    """Run ``Z = X · Y`` on the word-level array with sequential arithmetic."""

    def __init__(
        self,
        u: int,
        p: int,
        arithmetic: str = "add-shift",
        backend: str | None = None,
    ):
        self.u = int(u)
        self.p = int(p)
        self.arithmetic = arithmetic
        self.backend = backend
        if arithmetic == "add-shift":
            self.multiplier = SequentialAddShift(p)
        elif arithmetic == "carry-save":
            self.multiplier = SequentialCarrySave(p)
        else:
            raise ValueError(f"unknown arithmetic {arithmetic!r}")
        self.mapping = word_level_mapping()
        self.algorithm = matmul_word_structure(u)

    def run(
        self, x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]
    ) -> WordMatmulRun:
        """Execute; products are computed by the sequential multiplier (so a
        multiplier bug would corrupt the result, not just the timing)."""
        u = self.u
        binding = {"u": u}

        def compute(q: tuple[int, ...], store: ValueStore) -> None:
            j1, j2, j3 = q
            if j2 == 1:
                xv = x[j1 - 1][j3 - 1]
            else:
                xv = store.get("x", (j1, j2 - 1, j3))
            store.put("x", q, xv)
            if j1 == 1:
                yv = y[j3 - 1][j2 - 1]
            else:
                yv = store.get("y", (j1 - 1, j2, j3))
            store.put("y", q, yv)
            # Only the first word iteration reads the zero boundary; a
            # later one reads a write, so a read before it raises.
            acc = store.get("z", (j1, j2, j3 - 1), 0 if j3 == 1 else None)
            store.put("z", q, acc + self.multiplier.multiply(xv, yv))

        sim = SpaceTimeSimulator(
            self.mapping, self.algorithm, binding, backend=self.backend
        )
        kernel = None
        # Accumulated z words (< u * 2^{2p}) must fit int64 lanes.
        if sim.backend == "compiled" and 2 * self.p + u.bit_length() <= 62:
            from repro.compile.word import WordMatmulSlotKernel

            kernel = WordMatmulSlotKernel(u, self.multiplier, x, y)
        result = sim.run(compute, kernel=kernel)
        product = [
            [sim.store.get("z", (j1, j2, u)) for j2 in range(1, u + 1)]
            for j1 in range(1, u + 1)
        ]
        word_beats = result.makespan
        t_b = self.multiplier.cycles
        return WordMatmulRun(
            product=product,
            sim=result,
            word_beats=word_beats,
            cycles_per_beat=t_b,
            total_cycles=word_beats * t_b,
        )
