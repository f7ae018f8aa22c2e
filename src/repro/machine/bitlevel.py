"""The bit-level matrix-multiplication machine.

Executes the bit-level matmul algorithm (Example 3.1) on a mapped systolic
array via the space-time executor, bit-exactly.  Per index point
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

from repro.arith.bitops import to_bits
from repro.expansion.expansions import Expansion, get_expansion
from repro.expansion.theorem31 import matmul_bit_level
from repro.machine.simulator import SimulationResult, SpaceTimeSimulator, ValueStore
from repro.mapping.transform import MappingMatrix

__all__ = ["BitLevelMatmulMachine", "MatmulRun"]


@dataclass
class MatmulRun:
    """Result of one bit-level matmul execution."""

    product: list[list[int]]  # Z = X·Y mod 2^{2p-1}
    sim: SimulationResult
    dropped_bits: int  # overflow bits beyond position 2p-1
    max_summands: int


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
        self.mapping = mapping
        self.expansion = get_expansion(expansion)
        self.algorithm = matmul_bit_level(u, p, self.expansion.key)
        self.binding = {"u": self.u, "p": self.p}
        self.backend = backend

    # -- main entry ---------------------------------------------------------
    def run(self, x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> MatmulRun:
        """Execute and return the product matrix (mod ``2^{2p-1}``)."""
        u, p = self.u, self.p
        x_bits = [[to_bits(x[i][j], p) for j in range(u)] for i in range(u)]
        y_bits = [[to_bits(y[i][j], p) for j in range(u)] for i in range(u)]
        state = {"dropped": 0, "max_summands": 0}
        exp1 = self.expansion.key == "I"

        def compute(q: tuple[int, ...], store: ValueStore) -> None:
            j1, j2, j3, i1, i2 = q

            # x bit: enters at i1 = 1, moves along i1 elsewhere (d̄₄).
            if i1 == 1:
                if j2 == 1:
                    xb = x_bits[j1 - 1][j3 - 1][i2 - 1]
                else:
                    xb = store.get("x", (j1, j2 - 1, j3, 1, i2))
            else:
                xb = store.get("x", (j1, j2, j3, i1 - 1, i2))
            store.put("x", q, xb)

            # y bit: enters at i2 = 1, moves along i2 elsewhere (d̄₅).
            if i2 == 1:
                if j1 == 1:
                    yb = y_bits[j3 - 1][j2 - 1][i1 - 1]
                else:
                    yb = store.get("y", (j1 - 1, j2, j3, i1, 1))
            else:
                yb = store.get("y", (j1, j2, j3, i1, i2 - 1))
            store.put("y", q, yb)

            inputs = xb & yb  # the partial product
            # Carry along the row (d̄₅ direction for c).
            if i2 > 1:
                inputs += store.get("c", (j1, j2, j3, i1, i2 - 1), 0)
            # Re-routed boundary carries.
            inputs += store.pop_pending("nr", q)

            on_boundary = i1 == p or i2 == 1
            if exp1:
                # Expansion I: position-wise z from the previous word
                # iteration at every point; the δ̄₃ collapse and c' only at
                # the final word iteration j3 = u.
                if j3 > 1:
                    inputs += store.get("s", (j1, j2, j3 - 1, i1, i2))
                if j3 == u:
                    if i1 > 1 and i2 < p:
                        inputs += store.get("s", (j1, j2, j3, i1 - 1, i2 + 1), 0)
                    if i2 > 2:
                        inputs += store.get("c2", (j1, j2, j3, i1, i2 - 2), 0)
            else:
                # Expansion II: the δ̄₃ collapse everywhere; final z bits of
                # the previous word iteration injected at the boundary; c'
                # on the i1 = p hyperplane.
                if i1 > 1 and i2 < p:
                    inputs += store.get("s", (j1, j2, j3, i1 - 1, i2 + 1), 0)
                if on_boundary and j3 > 1:
                    inputs += store.get("s", (j1, j2, j3 - 1, i1, i2))
                if i1 == p and i2 > 2:
                    inputs += store.get("c2", (j1, j2, j3, i1, i2 - 2), 0)

            if inputs > 7:
                raise AssertionError(f"compressor overflow at {q}: {inputs}")
            state["max_summands"] = max(state["max_summands"], inputs)

            store.put("s", q, inputs & 1)
            self._route(store, q, 1, (inputs >> 1) & 1, state, var="c")
            self._route(store, q, 2, (inputs >> 2) & 1, state, var="c2")

        sim = SpaceTimeSimulator(
            self.mapping, self.algorithm, self.binding, backend=self.backend
        )
        kernel = None
        if sim.backend == "compiled" and p <= 62:
            from repro.compile.matmul import MatmulSlotKernel

            kernel = MatmulSlotKernel(u, p, self.expansion.key, x, y, state)
        result = sim.run(compute, kernel=kernel)
        product = self._extract(sim.store)
        return MatmulRun(
            product=product,
            sim=result,
            dropped_bits=state["dropped"],
            max_summands=state["max_summands"],
        )

    # -- helpers --------------------------------------------------------------
    def _route(
        self,
        store: ValueStore,
        q: tuple[int, ...],
        offset: int,
        bit: int,
        state: dict,
        var: str,
    ) -> None:
        """Route a carry (`offset`=1) or second carry (`offset`=2)."""
        j1, j2, j3, i1, i2 = q
        p = self.p
        if not bit:
            if offset == 1 and i2 + 1 <= p:
                store.put(var, q, 0)
            elif offset == 2 and i2 + 2 <= p:
                store.put(var, q, 0)
            return
        if i2 + offset <= p:
            store.put(var, q, 1)
            return
        pos = (i1 + i2 - 1) + offset
        if pos <= 2 * p - 1:
            # Boundary re-route along the [1,0]ᵀ (i1) direction to the
            # column-p owner of this weight.
            store.add_pending("nr", (j1, j2, j3, pos - p + 1, p), 1)
        else:
            state["dropped"] += 1

    def _extract(self, store: ValueStore) -> list[list[int]]:
        """Assemble Z[j1][j2] from the boundary sum bits at j3 = u."""
        u, p = self.u, self.p
        dense = self._extract_dense(store)
        if dense is not None:
            return dense
        out = [[0] * u for _ in range(u)]
        for j1 in range(1, u + 1):
            for j2 in range(1, u + 1):
                value = 0
                for w in range(1, p + 1):
                    value |= store.get("s", (j1, j2, u, w, 1)) << (w - 1)
                for k in range(2, p + 1):
                    value |= store.get("s", (j1, j2, u, p, k)) << (p + k - 2)
                out[j1 - 1][j2 - 1] = value
        return out

    def _extract_dense(self, store) -> list[list[int]] | None:
        """Batched extraction against a dense array store: gather the same
        ``2p - 1`` boundary bits per product word in two slices instead of
        ``u²(2p - 1)`` scalar reads.  Read accounting matches the scalar
        path; values are identical bit for bit.

        Only for ``p <= 32``: the product words have ``2p - 1`` bits and
        must fit an int64 lane (so must the weight ``2^(2p-2)``).  Wider
        words take the scalar path, which reads the same bits."""
        u, p = self.u, self.p
        if p > 32:
            return None
        arrays = getattr(store, "_arrays", None)
        if arrays is None:
            return None
        s = arrays.get("s")
        if s is None or getattr(s, "shape", None) != (u, u, u, p, p):
            return None
        if any(key[0] == "s" for key in store._extra):
            return None  # scalar overrides present: take the exact path
        import numpy as np

        low = s[:, :, u - 1, :, 0].astype(np.int64)  # weights 0 .. p-1
        high = s[:, :, u - 1, p - 1, 1:].astype(np.int64)  # p .. 2p-2
        weights = np.int64(1) << np.arange(2 * p - 1, dtype=np.int64)
        values = low @ weights[:p] + high @ weights[p:]
        store.reads += u * u * (2 * p - 1)
        return [[int(v) for v in row] for row in values.tolist()]
