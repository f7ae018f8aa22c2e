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

The machine is the word-level model machine
(:class:`~repro.machine.wordmodel.WordLevelModelMachine`) at
:data:`~repro.machine.model.MATMUL_H` over ``[1..u]³``, plus the product
extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ir.builders import matmul_word_structure
from repro.machine.bitlevel import matmul_words, product_matrix
from repro.machine.model import MATMUL_H
from repro.machine.simulator import SimulationResult
from repro.machine.wordmodel import WordLevelModelMachine
from repro.mapping.designs import word_level_mapping
from repro.mapping.transform import MappingMatrix

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
        self.model = WordLevelModelMachine(
            *MATMUL_H, (1, 1, 1), (self.u,) * 3, self.p,
            word_level_mapping(), arithmetic, backend,
        )
        self.multiplier = self.model.multiplier
        self.algorithm = matmul_word_structure(u)

    @property
    def mapping(self) -> MappingMatrix:
        return self.model.mapping

    @mapping.setter
    def mapping(self, mapping: MappingMatrix) -> None:
        self.model.mapping = mapping

    @property
    def backend(self) -> str | None:
        return self.model.backend

    @backend.setter
    def backend(self, backend: str | None) -> None:
        self.model.backend = backend

    def run(
        self, x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]
    ) -> WordMatmulRun:
        """Execute; products are computed by the sequential multiplier (so a
        multiplier bug would corrupt the result, not just the timing)."""
        model = self.model
        result, store = model._simulate(
            *matmul_words(model.box, x, y, self.p), None
        )
        values = model._z_at(store, model.box.final_index)
        t_b = self.multiplier.cycles
        return WordMatmulRun(
            product=product_matrix(values, self.u),
            sim=result,
            word_beats=result.makespan,
            cycles_per_beat=t_b,
            total_cycles=result.makespan * t_b,
        )
