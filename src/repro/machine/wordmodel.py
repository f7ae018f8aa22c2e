"""Word-level execution of model-(3.5) algorithms.

The word-level counterpart of :class:`repro.machine.model.
BitLevelModelMachine`: runs the recurrence

    ``z(j̄) = z(j̄ - h̄₃) + x(j̄) · y(j̄)``

on a word-level systolic array (one multiply-accumulate per beat, performed
by a *sequential* arithmetic unit costing ``t_b`` cycles), under any
feasible word-level mapping.  Together the two machines measure the paper's
speedup claim for any workload the model covers, not just matmul (the
word-level matmul array, :class:`~repro.machine.wordlevel.
WordLevelMatmulMachine`, is this machine at
:data:`~repro.machine.model.MATMUL_H`).

Operand words are checked like the bit-level machine's: ``p`` bits each,
and constant along their pipelining chains (``x`` along ``h̄₁``, ``y``
along ``h̄₂``).  Under the ``compiled`` backend, while the accumulated
words fit an int64 lane, the run executes the design's compiled program
(:mod:`repro.compile.word`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as _np

from repro.arith.sequential import SequentialAddShift, SequentialCarrySave
from repro.ir.builders import word_model_structure
from repro.machine.model import WordBox
from repro.machine.simulator import SimulationResult, SpaceTimeSimulator
from repro.mapping.transform import MappingMatrix

__all__ = ["WordLevelModelMachine", "WordModelRun"]

Point = tuple[int, ...]


@dataclass
class WordModelRun:
    """Result of one word-level model execution."""

    z_words: dict[Point, int]
    outputs: dict[Point, int]
    sim: SimulationResult
    word_beats: int
    cycles_per_beat: int
    total_cycles: int


class WordLevelModelMachine:
    """Run a model-(3.5) instance word by word on a mapped array."""

    def __init__(
        self,
        h1: Sequence[int],
        h2: Sequence[int],
        h3: Sequence[int],
        lowers: Sequence[int],
        uppers: Sequence[int],
        p: int,
        mapping: MappingMatrix,
        arithmetic: str = "add-shift",
        backend: str | None = None,
    ):
        self.backend = backend
        self.n = len(h1)
        if not (len(h2) == len(h3) == len(lowers) == len(uppers) == self.n):
            raise ValueError("h̄ vectors and bounds must share one dimension")
        self.h1 = tuple(int(x) for x in h1)
        self.h2 = tuple(int(x) for x in h2)
        self.h3 = tuple(int(x) for x in h3)
        self.p = int(p)
        self.mapping = mapping
        if arithmetic == "add-shift":
            self.multiplier = SequentialAddShift(p)
        elif arithmetic == "carry-save":
            self.multiplier = SequentialCarrySave(p)
        else:
            raise ValueError(f"unknown arithmetic {arithmetic!r}")
        self.algorithm = word_model_structure(h1, h2, h3, lowers, uppers)
        self.box = WordBox(self.h1, self.h2, self.h3, lowers, uppers)

    def run(
        self,
        x_words: Mapping[Point, int],
        y_words: Mapping[Point, int],
        z_init: Mapping[Point, int] | None = None,
    ) -> WordModelRun:
        """Execute; words pipeline along ``h̄₁``/``h̄₂`` through the store.

        ``z_init`` holds the initial accumulator words, keyed by the first
        point of each ``h̄₃`` chain; absent entries default to 0."""
        box = self.box
        result, store = self._simulate(
            box.words(x_words, "x", self.p), box.words(y_words, "y", self.p),
            box.initial(z_init),
        )
        values = self._z_at(store, _np.arange(len(box.final)))
        z_words = dict(zip(box.points, values))
        outputs = {
            box.points[k]: values[k] for k in box.final_index.tolist()
        }
        t_b = self.multiplier.cycles
        return WordModelRun(
            z_words=z_words,
            outputs=outputs,
            sim=result,
            word_beats=result.makespan,
            cycles_per_beat=t_b,
            total_cycles=result.makespan * t_b,
        )

    def _simulate(self, x, y, z0):
        """Run checked word arrays; return ``(result, store)``."""
        sim = SpaceTimeSimulator(
            self.mapping, self.algorithm, {}, backend=self.backend
        )
        # Accumulated words (< z_init + chain · 2^{2p}, and no chain is
        # longer than the box's widest extent) must fit int64 lanes.
        lane = 1 << 62
        if (
            sim.backend == "compiled"
            and 2 * self.p + max(self.box.shape).bit_length() <= 62
            and (z0 is None or all(-lane < v < lane for v in z0.flat))
        ):
            from repro.compile.word import WordModelKernel

            box = self.box
            key = (self.h1, self.h2, self.h3, box.lowers, box.uppers)
            z0 = None if z0 is None else z0.astype(_np.int64)
            result = sim.run(
                None, kernel=WordModelKernel(key, self.multiplier, x, y, z0)
            )
        else:
            result = sim.run(self._compute(x, y, z0))
        return result, sim.store

    def _compute(self, x, y, z0):
        """The per-point multiply-accumulate cell."""
        box = self.box
        multiply = self.multiplier.multiply

        def back(j, h, inside):
            return tuple(a - b for a, b in zip(j, h)) if inside else None

        z_flat = [0] * len(box.final) if z0 is None else z0.reshape(-1).tolist()
        words = {
            j: (back(j, self.h1, x_in), back(j, self.h2, y_in),
                back(j, self.h3, z_in), xv, yv, zv)
            for j, xv, yv, zv, x_in, y_in, z_in in zip(
                box.points, x.reshape(-1).tolist(), y.reshape(-1).tolist(),
                z_flat, box.x_in.tolist(), box.y_in.tolist(),
                box.z_in.tolist(),
            )
        }

        def compute(q: Point, store) -> None:
            x_src, y_src, z_src, xv, yv, acc = words[q]
            if x_src is not None:
                xv = store.get("x", x_src)
            store.put("x", q, xv)
            if y_src is not None:
                yv = store.get("y", y_src)
            store.put("y", q, yv)
            if z_src is not None:
                acc = store.get("z", z_src)
            store.put("z", q, acc + multiply(xv, yv))

        return compute

    def _z_at(self, store, sel) -> list[int]:
        """The z words at the flat word indices ``sel``."""
        points = self.box.points
        return [store.get("z", points[k]) for k in sel.tolist()]
