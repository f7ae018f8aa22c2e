"""The design compiler for the word-level baseline array.

The word-level matmul lattice is pure pipelining: ``x`` flows along
``j2``, ``y`` along ``j1``, and ``z`` accumulates along ``j3``.  Once a
design is conflict-checked and its read sites pass the ``Π·d̄ >= 1``
causality census (both compile-time facts), the whole simulation
collapses to three array expressions -- no slot loop at all:

* the final ``x``/``y`` planes are the operand matrices broadcast over
  the pipelining axes (views; nothing is written);
* every product is one batched ``multiply_block`` call over the full
  lattice (the sequential multiplier under test still computes every
  bit, elementwise exactly as the per-point compute would);
* the running sums are a ``cumsum`` along ``j3``.

All counters (reads, causality checks, link traffic, ``3N`` writes) are
structural constants folded at compile time, so the program holds no
index streams at all.
"""

from __future__ import annotations

import numpy as _np

from repro.compile.plan import SlotCounters, plan_for
from repro.mapping.transform import MappingMatrix

__all__ = [
    "WordMatmulSlotKernel",
    "CompiledWordProgram",
    "compile_word_program",
]


class WordMatmulSlotKernel:
    """The operands of one word-level matmul run, as the compiled program
    reads them.

    :class:`~repro.machine.wordlevel.WordLevelMatmulMachine` passes one of
    these as ``kernel=``; products come from the sequential multiplier's
    batched ``multiply_block`` (add-shift or carry-save), so the
    arithmetic algorithm under test still computes every product bit.
    """

    def __init__(self, u: int, multiplier, x, y):
        self.u = int(u)
        self.multiplier = multiplier
        self._x = _np.asarray(x, dtype=_np.int64)
        self._y = _np.asarray(y, dtype=_np.int64)


class CompiledWordProgram:
    """One design's compiled word-level matmul program."""

    def __init__(self, u, reads, causality_checks, writes_struct, links):
        self.u = int(u)
        self.lowers = (1, 1, 1)
        self.uppers = (u, u, u)
        self.reads = int(reads)
        self.causality_checks = int(causality_checks)
        self.writes_struct = int(writes_struct)
        self.links = dict(links)
        self.busy: dict[int, int] = {}
        self.pe_busy: dict[tuple[int, ...], int] = {}
        self.first = 0
        self.last = -1
        self.n_points = 0

    def execute(self, kernel, store) -> SlotCounters:
        np = _np
        u = self.u
        shape = (u, u, u)
        # x[j1, j3] pipelined along j2; y[j3, j2] pipelined along j1.
        Xv = np.broadcast_to(kernel._x[:, None, :], shape)
        Yv = np.broadcast_to(kernel._y.T[None, :, :], shape)
        products = kernel.multiplier.multiply_block(
            Xv.reshape(-1), Yv.reshape(-1)
        )
        Z = np.asarray(products, dtype=np.int64).reshape(shape).cumsum(axis=2)
        always = np.broadcast_to(np.bool_(True), shape)
        store.attach("x", Xv, always)
        store.attach("y", Yv, always)
        store.attach("z", Z, always)
        return SlotCounters(
            reads=self.reads,
            writes=self.writes_struct,
            causality_checks=self.causality_checks,
            links=dict(self.links),
        )


def compile_word_program(mapping: MappingMatrix, u: int) -> CompiledWordProgram:
    """Compile the (``T``, ``u``) pair to a word-level program."""
    plan = plan_for(mapping, (1, 1, 1), (u, u, u))
    lattice = plan.lattice
    j1, j2, j3 = lattice[:, 0], lattice[:, 1], lattice[:, 2]
    counters = SlotCounters()
    counters.account_site(mapping, (0, 1, 0), int((j2 > 1).sum()))
    counters.account_site(mapping, (1, 0, 0), int((j1 > 1).sum()))
    counters.account_site(
        mapping, (0, 0, 1), len(lattice), int((j3 > 1).sum())
    )
    program = CompiledWordProgram(
        u, counters.reads, counters.causality_checks,
        3 * plan.n_points, counters.links,
    )
    program.busy = plan.busy_per_step()
    program.pe_busy = plan.pe_busy()
    program.first = plan.first
    program.last = plan.last
    program.n_points = plan.n_points
    return program
