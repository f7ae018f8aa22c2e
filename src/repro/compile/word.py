"""The design compiler for the word-level model-(3.5) array.

The word-level lattice is pure pipelining: ``x`` flows along ``h̄₁``,
``y`` along ``h̄₂``, and ``z`` accumulates along ``h̄₃``.  Once a design
is conflict-checked and its read sites pass the ``Π·h̄ >= 1`` causality
census (both compile-time facts), the whole simulation collapses to a
few array expressions -- no slot loop at all:

* the final ``x``/``y`` planes are the (chain-constant) operand words
  themselves, so nothing is written;
* every product is one batched ``multiply_block`` call over the full
  lattice (the sequential multiplier under test still computes every
  bit, elementwise exactly as the per-point compute would);
* the running sums are a cumulative sum along the ``h̄₃`` chains, seeded
  with the initial accumulator words: the products are laid out in the
  box's end-aligned chain grid (:class:`~repro.machine.model.WordBox`),
  where a shorter chain's padding is zero, and summed down its positions.

All counters (reads, causality checks, link traffic, ``3N`` writes) are
structural constants folded at compile time.
"""

from __future__ import annotations

import numpy as _np

from repro.compile.plan import SlotCounters, plan_for
from repro.machine.model import WordBox
from repro.mapping.transform import MappingMatrix

__all__ = [
    "WordModelKernel",
    "CompiledWordProgram",
    "compile_word_program",
]


class WordModelKernel:
    """The operands of one word-level model run, as the compiled program
    reads them.

    :class:`~repro.machine.wordmodel.WordLevelModelMachine` passes one of
    these as ``kernel=``; ``key`` is the program's instance -- ``(h1, h2,
    h3, lowers, uppers)``; ``x``/``y`` are the ``int64`` operand words over
    the word box and ``z0`` is ``None`` or the ``int64`` initial words
    (nonzero only at chain starts).  Products come from the sequential
    multiplier's batched ``multiply_block`` (add-shift or carry-save), so
    the arithmetic algorithm under test still computes every product bit.
    """

    def __init__(self, key, multiplier, x, y, z0):
        self.key = key
        self.multiplier = multiplier
        self.x = x
        self.y = y
        self.z0 = z0


class CompiledWordProgram:
    """One design's compiled word-level program over the box's chain
    layout (``box``, a :class:`~repro.machine.model.WordBox`), with the
    design's :class:`~repro.compile.plan.SchedulePlan` (``plan``)."""

    def __init__(self, plan, box, reads, causality_checks, writes_struct,
                 links):
        self.plan = plan
        self.lowers = box.lowers
        self.uppers = box.uppers
        self.shape = box.shape
        self.box = box
        self.reads = int(reads)
        self.causality_checks = int(causality_checks)
        self.writes_struct = int(writes_struct)
        self.links = dict(links)

    def execute(self, kernel, store) -> SlotCounters:
        np = _np
        x, y = kernel.x, kernel.y
        Z = np.asarray(
            kernel.multiplier.multiply_block(x.reshape(-1), y.reshape(-1)),
            dtype=np.int64,
        )
        if kernel.z0 is not None:
            Z = Z + kernel.z0.reshape(-1)
        box = self.box
        Z = box.from_chains(np.cumsum(box.to_chains(Z.reshape(box.shape)), axis=0))
        always = np.broadcast_to(np.bool_(True), self.shape)
        store.attach("x", x, always)
        store.attach("y", y, always)
        store.attach("z", Z, always)
        return SlotCounters(
            reads=self.reads,
            writes=self.writes_struct,
            causality_checks=self.causality_checks,
            links=dict(self.links),
        )


def compile_word_program(
    mapping: MappingMatrix, h1, h2, h3, lowers, uppers
) -> CompiledWordProgram:
    """Compile one (``T``, model, box) instance to a word-level program."""
    plan = plan_for(mapping, lowers, uppers)
    box = WordBox(h1, h2, h3, lowers, uppers)
    counters = SlotCounters()
    for h, inside in ((h1, box.x_in), (h2, box.y_in), (h3, box.z_in)):
        counters.account_site(mapping, h, int(inside.sum()))
    return CompiledWordProgram(
        plan, box, counters.reads, counters.causality_checks,
        3 * plan.n_points, counters.links,
    )
