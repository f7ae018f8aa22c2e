"""The bit-level matrix-multiplication machine.

Executes the bit-level matmul algorithm (Example 3.1) on a mapped systolic
array, bit-exactly: it is the model machine
(:class:`~repro.machine.model.BitLevelModelMachine`) at matmul's
dependence vectors :data:`~repro.machine.model.MATMUL_H` over
``[1..u]³``, plus the product extraction.  Per index point
``q̄ = (j1, j2, j3, i1, i2)``:

* ``x`` bits enter the lattice on the ``i1 = 1`` row (bit ``i2`` of
  ``X[j1, j3]``, pipelined along ``j2``) and move along ``i1`` elsewhere
  (``d̄₄``);
* ``y`` bits enter on the ``i2 = 1`` column (bit ``i1`` of ``Y[j3, j2]``,
  pipelined along ``j1``) and move along ``i2`` (``d̄₅``);
* the summation follows the chosen expansion, with the boundary carry
  completion of :mod:`repro.expansion.semantics`: carries escaping the
  western column re-enter one row south (an existing link direction), and
  bits of weight position ``>= 2p`` drop as accumulator overflow, so the
  computed product matrix is exact modulo ``2^{2p-1}``.

The machine checks, dynamically and per datum: schedule causality, PE
conflicts, single assignment -- everything Definition 4.1 promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as _np

from repro.expansion.expansions import Expansion
from repro.machine.model import MATMUL_H, BitLevelModelMachine, WordBox
from repro.machine.simulator import SimulationResult
from repro.mapping.transform import MappingMatrix

__all__ = ["BitLevelMatmulMachine", "MatmulRun", "matmul_words"]


@dataclass
class MatmulRun:
    """Result of one bit-level matmul execution."""

    product: list[list[int]]  # Z = X·Y mod 2^{2p-1}
    sim: SimulationResult
    dropped_bits: int  # overflow bits beyond position 2p-1
    max_summands: int


def matmul_words(box: WordBox, x, y, p: int):
    """``X`` and ``Y`` as checked model-(3.5) word arrays at
    :data:`MATMUL_H`: ``x(j̄) = X[j1][j3]``, ``y(j̄) = Y[j3][j2]``."""
    xw = _np.asarray(x, dtype=object)[:, None, :]
    yw = _np.asarray(y, dtype=object).T[None, :, :]
    return (box.words(_np.broadcast_to(xw, box.shape), "x", p),
            box.words(_np.broadcast_to(yw, box.shape), "y", p))


def product_matrix(values: list[int], u: int) -> list[list[int]]:
    """The chain-end words (row-major in ``(j1, j2)``) as a ``u x u``
    matrix."""
    return [values[i * u:(i + 1) * u] for i in range(u)]


class BitLevelMatmulMachine:
    """Run ``Z = X · Y`` bit-level on a mapped array.

    Parameters
    ----------
    u:
        Matrix dimension.
    p:
        Word length; operands must satisfy ``0 <= X[i][j] < 2^p``.
    mapping:
        The space-time mapping ``T`` (e.g. :func:`repro.mapping.designs.
        fig4_mapping`).
    expansion:
        ``"I"`` or ``"II"`` (the paper's designs use Expansion II).
    backend:
        Simulator backend (``"pointwise"`` | ``"compiled"``); ``None``
        defers to :func:`repro.machine.simulator.default_backend`.  Under
        the compiled backend the run executes the design's compiled
        program (for ``p <= 62``; wider words take the per-point path).
    """

    def __init__(
        self,
        u: int,
        p: int,
        mapping: MappingMatrix,
        expansion: str | Expansion = "II",
        backend: str | None = None,
    ):
        self.u = int(u)
        self.p = int(p)
        self.model = BitLevelModelMachine(
            *MATMUL_H, (1, 1, 1), (self.u,) * 3, self.p, mapping, expansion,
            backend,
        )
        self.expansion = self.model.expansion
        self.algorithm = self.model.algorithm
        self.binding = {"u": self.u, "p": self.p}

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

    def run(self, x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> MatmulRun:
        """Execute and return the product matrix (mod ``2^{2p-1}``)."""
        model = self.model
        result, store, state = model._simulate(
            *matmul_words(model.box, x, y, self.p), None
        )
        # Z[j1][j2] is the z word at the chain end (j1, j2, u).
        values = model._words_at(store, model.box.final_index)
        return MatmulRun(
            product=product_matrix(values, self.u),
            sim=result,
            dropped_bits=state["dropped"],
            max_summands=state["max_summands"],
        )
