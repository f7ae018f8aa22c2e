"""Bit-level execution of arbitrary model-(3.5) algorithms on mapped arrays.

:class:`BitLevelModelMachine` generalizes the matrix-multiplication machine
to any word-level algorithm of the form (3.5)::

    x(j̄) = x(j̄ - h̄₁);  y(j̄) = y(j̄ - h̄₂);
    z(j̄) = z(j̄ - h̄₃) + x(j̄) · y(j̄)

over an arbitrary ``n``-dimensional box, under either expansion, on any
feasible mapping of the ``(n+2)``-dimensional bit-level structure.  This is
what lets the convolution / matrix-vector designs produced by the search in
:mod:`repro.mapping.lowerdim` be *executed*, not just scheduled.

Word operand values are supplied as dictionaries over the word index set;
the machine checks they respect the pipelining recurrences (``x(j̄)`` must
equal ``x(j̄-h̄₁)`` whenever both are inside ``J_w``), then runs every bit
through the space-time executor with full conflict/causality checking, and
returns the accumulated ``z`` words at the ends of the ``h̄₃`` chains --
verified reproducible against the word-level recurrence mod ``2^{2p-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.arith.bitops import to_bits
from repro.expansion.expansions import Expansion, get_expansion
from repro.expansion.theorem31 import bit_level_from_vectors
from repro.machine.simulator import SimulationResult, SpaceTimeSimulator, ValueStore
from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet

__all__ = ["BitLevelModelMachine", "ModelRun"]

Point = tuple[int, ...]


@dataclass
class ModelRun:
    """Result of one generic bit-level model execution."""

    #: z word at every word index point (mod 2^{2p-1})
    z_words: dict[Point, int]
    #: z words at the ends of the accumulation chains (j̄ + h̄₃ outside J_w)
    outputs: dict[Point, int]
    sim: SimulationResult
    dropped_bits: int
    max_summands: int


class BitLevelModelMachine:
    """Execute a model-(3.5) instance bit by bit on a mapped array."""

    def __init__(
        self,
        h1: Sequence[int],
        h2: Sequence[int],
        h3: Sequence[int],
        lowers: Sequence[int],
        uppers: Sequence[int],
        p: int,
        mapping: MappingMatrix,
        expansion: str | Expansion = "II",
        backend: str | None = None,
    ):
        self.n = len(h1)
        if not (len(h2) == len(h3) == len(lowers) == len(uppers) == self.n):
            raise ValueError("h̄ vectors and bounds must share one dimension")
        if not any(h3):
            raise ValueError("h̄₃ must be nonzero (z must accumulate)")
        self.backend = backend
        self.h1 = tuple(int(x) for x in h1)
        self.h2 = tuple(int(x) for x in h2)
        self.h3 = tuple(int(x) for x in h3)
        self.p = int(p)
        self.mapping = mapping
        self.expansion = get_expansion(expansion)
        self.algorithm = bit_level_from_vectors(
            h1, h2, h3, lowers, uppers, p, self.expansion.key
        )
        self.word_set = IndexSet(list(lowers), list(uppers))
        self.binding: dict[str, int] = {}

    # -- operand validation ----------------------------------------------------
    def _check_pipelining(
        self, words: Mapping[Point, int], h: tuple[int, ...], name: str
    ) -> None:
        for j in self.word_set.points({}):
            if j not in words:
                raise ValueError(f"{name} word missing at {j}")
            if not (0 <= words[j] < (1 << self.p)):
                raise ValueError(f"{name}[{j}] exceeds the word length")
            src = tuple(a - b for a, b in zip(j, h))
            if self.word_set.contains(src, {}) and words[src] != words[j]:
                raise ValueError(
                    f"{name} violates its pipelining recurrence at {j}: "
                    f"{name}(j̄) = {words[j]} but {name}(j̄-h̄) = {words[src]}"
                )

    def _is_chain_final(self, j: Point) -> bool:
        nxt = tuple(a + b for a, b in zip(j, self.h3))
        return not self.word_set.contains(nxt, {})

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        x_words: Mapping[Point, int],
        y_words: Mapping[Point, int],
        z_init: Mapping[Point, int] | None = None,
    ) -> ModelRun:
        """Run the machine.

        Parameters
        ----------
        x_words, y_words:
            Word values per word index point (validated against the
            pipelining recurrences).
        z_init:
            Initial accumulator words, keyed by the *first* point of each
            ``h̄₃`` chain (those with ``j̄ - h̄₃`` outside ``J_w``); absent
            entries default to 0.
        """
        self._check_pipelining(x_words, self.h1, "x")
        self._check_pipelining(y_words, self.h2, "y")
        z_init = dict(z_init or {})
        p, n = self.p, self.n
        mask = (1 << (2 * p - 1)) - 1
        exp1 = self.expansion.key == "I"
        state = {"dropped": 0, "max_summands": 0}

        x_bits = {j: to_bits(x_words[j], p) for j in self.word_set.points({})}
        y_bits = {j: to_bits(y_words[j], p) for j in self.word_set.points({})}
        z_init_bits = {
            j: to_bits(v & mask, 2 * p - 1) for j, v in z_init.items()
        }

        def split(q: Point) -> tuple[Point, int, int]:
            return q[:n], q[n], q[n + 1]

        def word_shift(j: Point, h: tuple[int, ...]) -> Point:
            return tuple(a - b for a, b in zip(j, h))

        def z_boundary_bit(j: Point, w: int) -> int:
            """Initial z bit of weight position w for a chain starting at j."""
            bits = z_init_bits.get(j)
            return bits[w - 1] if bits else 0

        def compute(q: Point, store: ValueStore) -> None:
            j, i1, i2 = split(q)

            # x bit (index i2 of the multiplicand word).
            if i1 == 1:
                src_j = word_shift(j, self.h1)
                if self.word_set.contains(src_j, {}):
                    xb = store.get("x", (*src_j, 1, i2))
                else:
                    xb = x_bits[j][i2 - 1]
            else:
                xb = store.get("x", (*j, i1 - 1, i2))
            store.put("x", q, xb)

            # y bit (index i1 of the multiplier word).
            if i2 == 1:
                src_j = word_shift(j, self.h2)
                if self.word_set.contains(src_j, {}):
                    yb = store.get("y", (*src_j, i1, 1))
                else:
                    yb = y_bits[j][i1 - 1]
            else:
                yb = store.get("y", (*j, i1, i2 - 1))
            store.put("y", q, yb)

            inputs = xb & yb
            if i2 > 1:
                inputs += store.get("c", (*j, i1, i2 - 1), 0)
            inputs += store.pop_pending("nr", q)

            prev_j = word_shift(j, self.h3)
            prev_inside = self.word_set.contains(prev_j, {})
            on_boundary = i1 == p or i2 == 1
            w = i1 + i2 - 1

            if exp1:
                # Position-wise z forwarding at every point.  A chain-start
                # iteration instead decomposes the initial word over the
                # lattice: bit of weight position w enters at its boundary
                # owner point only ((w, 1), or (p, w-p+1) for the high half).
                if prev_inside:
                    inputs += store.get("s", (*prev_j, i1, i2))
                else:
                    owner = (w, 1) if w <= p else (p, w - p + 1)
                    if (i1, i2) == owner:
                        inputs += z_boundary_bit(j, w)
                if self._is_chain_final(j):
                    if i1 > 1 and i2 < p:
                        inputs += store.get("s", (*j, i1 - 1, i2 + 1), 0)
                    if i2 > 2:
                        inputs += store.get("c2", (*j, i1, i2 - 2), 0)
            else:
                if i1 > 1 and i2 < p:
                    inputs += store.get("s", (*j, i1 - 1, i2 + 1), 0)
                if on_boundary:
                    if prev_inside:
                        inputs += store.get("s", (*prev_j, i1, i2))
                    else:
                        inputs += z_boundary_bit(j, w)
                if i1 == p and i2 > 2:
                    inputs += store.get("c2", (*j, i1, i2 - 2), 0)

            if inputs > 7:
                raise AssertionError(f"compressor overflow at {q}: {inputs}")
            state["max_summands"] = max(state["max_summands"], inputs)
            store.put("s", q, inputs & 1)
            self._route(store, q, 1, (inputs >> 1) & 1, state, "c")
            self._route(store, q, 2, (inputs >> 2) & 1, state, "c2")

        # Generic model lattices run the compiled backend through its
        # generic per-point path (batched transforms, slot-ordered firing).
        sim = SpaceTimeSimulator(
            self.mapping, self.algorithm, self.binding, backend=self.backend
        )
        result = sim.run(compute)

        # Extract z words.  Under Expansion I, non-final iterations hold a
        # position-wise redundant state; words are extracted at chain-final
        # iterations only.  Under Expansion II, every iteration has a
        # complete word at its boundary.
        z_words: dict[Point, int] = {}
        outputs: dict[Point, int] = {}
        for j in self.word_set.points({}):
            final = self._is_chain_final(j)
            if exp1 and not final:
                continue
            value = 0
            for wpos in range(1, p + 1):
                value |= sim.store.get("s", (*j, wpos, 1)) << (wpos - 1)
            for k in range(2, p + 1):
                value |= sim.store.get("s", (*j, p, k)) << (p + k - 2)
            z_words[j] = value
            if final:
                outputs[j] = value
        return ModelRun(
            z_words=z_words,
            outputs=outputs,
            sim=result,
            dropped_bits=state["dropped"],
            max_summands=state["max_summands"],
        )

    # -- carry routing (same weight discipline as the matmul machine) -----
    def _route(
        self,
        store: ValueStore,
        q: Point,
        offset: int,
        bit: int,
        state: dict,
        var: str,
    ) -> None:
        j, i1, i2 = q[: self.n], q[self.n], q[self.n + 1]
        p = self.p
        if not bit:
            if i2 + offset <= p:
                store.put(var, q, 0)
            return
        if i2 + offset <= p:
            store.put(var, q, 1)
            return
        pos = (i1 + i2 - 1) + offset
        if pos <= 2 * p - 1:
            store.add_pending("nr", (*j, pos - p + 1, p), 1)
        else:
            state["dropped"] += 1

    # -- reference semantics (for verification) ---------------------------
    def reference(
        self,
        x_words: Mapping[Point, int],
        y_words: Mapping[Point, int],
        z_init: Mapping[Point, int] | None = None,
    ) -> dict[Point, int]:
        """The word-level recurrence evaluated directly, mod ``2^{2p-1}``."""
        z_init = dict(z_init or {})
        mask = (1 << (2 * self.p - 1)) - 1
        z: dict[Point, int] = {}
        for j in self.word_set.points({}):  # lexicographic: sources first
            prev = tuple(a - b for a, b in zip(j, self.h3))
            acc = z[prev] if self.word_set.contains(prev, {}) else z_init.get(j, 0)
            z[j] = (acc + x_words[j] * y_words[j]) & mask
        return {j: v for j, v in z.items() if self._is_chain_final(j)}
