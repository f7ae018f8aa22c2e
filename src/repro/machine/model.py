"""Bit-level execution of model-(3.5) algorithms on mapped arrays.

:class:`BitLevelModelMachine` is the bit-level machine: it runs any
word-level algorithm of the form (3.5)::

    x(j̄) = x(j̄ - h̄₁);  y(j̄) = y(j̄ - h̄₂);
    z(j̄) = z(j̄ - h̄₃) + x(j̄) · y(j̄)

over an arbitrary ``n``-dimensional box, under either expansion, on any
feasible mapping of the ``(n+2)``-dimensional bit-level structure.  This is
what lets the convolution / matrix-vector designs produced by the search in
:mod:`repro.mapping.engine` be *executed*, not just scheduled; matrix
multiplication (:class:`~repro.machine.bitlevel.BitLevelMatmulMachine`) is
the instance :data:`MATMUL_H` over ``[1..u]³``.

Word operand values are supplied as dictionaries over the word index set;
the machine checks they respect the pipelining recurrences (``x(j̄)`` must
equal ``x(j̄-h̄₁)`` whenever both are inside ``J_w``), then runs every bit
through the space-time executor with full conflict/causality checking, and
returns the accumulated ``z`` words at the ends of the ``h̄₃`` chains --
verified reproducible against the word-level recurrence mod ``2^{2p-1}``.
Under the ``compiled`` backend (``p <= 62``) the run executes the design's
compiled program (:mod:`repro.compile.model`) instead of the per-point
``compute``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as _np

from repro.arith.bitops import to_bits
from repro.expansion.expansions import Expansion, get_expansion
from repro.expansion.theorem31 import bit_level_from_vectors
from repro.machine.simulator import SimulationResult, SpaceTimeSimulator
from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet

__all__ = [
    "MATMUL_H",
    "BitLevelModelMachine",
    "ModelRun",
    "WordBox",
]

Point = tuple[int, ...]

#: Matrix multiplication as model (3.5): ``h̄₁`` (x), ``h̄₂`` (y), ``h̄₃`` (z).
MATMUL_H = ((0, 1, 0), (1, 0, 0), (0, 0, 1))


class WordBox:
    """The word index set ``J_w`` of a model-(3.5) instance, in C order.

    Shared by the machines and compilers of both levels: the chain
    predicates of every word point, the operand checks, and the point
    list (built on first use).
    """

    def __init__(self, h1, h2, h3, lowers, uppers):
        self.h = (tuple(h1), tuple(h2), tuple(h3))
        self.lowers = tuple(int(x) for x in lowers)
        self.uppers = tuple(int(x) for x in uppers)
        self.shape = tuple(
            max(0, hi - lo + 1) for lo, hi in zip(self.lowers, self.uppers)
        )
        coords = _np.indices(self.shape).reshape(len(self.shape), -1)
        ext = _np.asarray(self.shape).reshape(-1, 1)

        def inside(h):
            shifted = coords - _np.asarray(h).reshape(-1, 1)
            return ((shifted >= 0) & (shifted < ext)).all(axis=0)

        #: Per word point, flat in C order: ``j̄ - h̄₁``, ``j̄ - h̄₂``,
        #: ``j̄ - h̄₃`` inside ``J_w`` (the operand arrives along its
        #: chain), and ``j̄ + h̄₃`` outside (a chain's last iteration).
        self.x_in, self.y_in, self.z_in = inside(h1), inside(h2), inside(h3)
        self.final = ~inside([-x for x in h3])
        strides = [1] * len(self.shape)
        for k in range(len(self.shape) - 1, 0, -1):
            strides[k - 1] = strides[k] * self.shape[k]
        self.strides = strides
        #: flat word indices of the chain ends, in C order
        self.final_index = _np.flatnonzero(self.final)
        # The chain layout: chain ``c`` is the one ending at
        # ``final_index[c]``, and every chain is end-aligned in a
        # ``(chain_length, n_chains)`` grid, so a word ``m`` steps before
        # its chain's end sits at position ``chain_length - 1 - m``.
        off3 = self.offset(h3)
        dist = _np.zeros(len(self.final), dtype=_np.int64)
        index = _np.zeros(len(self.final), dtype=_np.int64)
        idx = self.final_index
        chain = _np.arange(len(idx))
        steps = 0
        while len(idx):
            dist[idx] = steps
            index[idx] = chain
            back = self.z_in[idx]
            idx, chain = idx[back] - off3, chain[back]
            steps += 1
        #: the longest chain's word count ``K`` and the chain count ``C``
        self.chain_length = steps
        self.n_chains = len(self.final_index)
        #: per word, flat in C order: its end-aligned chain position and
        #: its chain index
        self.chain_pos = steps - 1 - dist
        self.chain_index = index
        # Every chain a run of consecutive flat word indices, in chain
        # order (matmul, convolutions along the last axis).
        self._chains_contiguous = bool(
            (index * steps + self.chain_pos == _np.arange(len(index))).all()
        )
        self._points: list[Point] | None = None

    def to_chains(self, values):
        """Per-word ``values`` (shape ``J_w + rest``) laid out in the chain
        grid: a new array of shape ``(K, *rest, C)``, zero in the padding
        before a shorter chain's start."""
        values = _np.asarray(values)
        rest = values.shape[len(self.shape):]
        out = _np.zeros(
            (self.chain_length, *rest, self.n_chains), dtype=values.dtype
        )
        out[self.chain_pos, ..., self.chain_index] = values.reshape(
            len(self.chain_pos), *rest
        )
        return out

    def from_chains(self, grid):
        """The per-word values of a chain grid ``(K, *rest, C)``, shape
        ``J_w + rest``: a view of ``grid`` when every chain is a run of
        consecutive flat word indices in chain order (matmul, convolutions
        along the last axis), a copy otherwise."""
        rows = _np.moveaxis(grid, -1, 0)
        if not self._chains_contiguous:
            rows = rows[self.chain_index, self.chain_pos]
        return rows.reshape(*self.shape, *grid.shape[1:-1])

    @property
    def points(self) -> list[Point]:
        """Every word point, in C (lexicographic) order."""
        if self._points is None:
            self._points = list(itertools.product(*(
                range(lo, hi + 1) for lo, hi in zip(self.lowers, self.uppers)
            )))
        return self._points

    def offset(self, h) -> int:
        """The flat displacement of word vector ``h``."""
        return sum(a * b for a, b in zip(h, self.strides))

    def words(self, words, name: str, p: int):
        """``name``'s operand words as a C-order array over the box.

        ``words`` is a mapping over ``J_w`` or an array of the box's
        shape.  Every word must have ``p`` bits and equal its chain
        predecessor (``x`` along ``h̄₁``, ``y`` along ``h̄₂``); the array
        is ``int64`` while ``p <= 62`` and holds Python ints beyond.
        """
        if isinstance(words, Mapping):
            try:
                values = [words[j] for j in self.points]
            except KeyError as exc:
                raise ValueError(f"{name} word missing at {exc.args[0]}") from None
            words = _np.array(values, dtype=object)
        arr = _np.asarray(words, dtype=object).reshape(self.shape)
        flat = arr.reshape(-1)
        bad = _np.flatnonzero((flat < 0) | (flat >= (1 << p)))
        if len(bad):
            raise ValueError(
                f"{name}[{self.points[bad[0]]}] exceeds the word length"
            )
        if p <= 62:
            arr = arr.astype(_np.int64)
        h, inside = (self.h[0], self.x_in) if name == "x" else (self.h[1], self.y_in)
        flat = arr.reshape(-1)
        idx = _np.flatnonzero(inside)
        src = idx - self.offset(h)
        diff = _np.flatnonzero(flat[idx] != flat[src])
        if len(diff):
            k, s = int(idx[diff[0]]), int(src[diff[0]])
            raise ValueError(
                f"{name} violates its pipelining recurrence at "
                f"{self.points[k]}: {name}(j̄) = {flat[k]} but "
                f"{name}(j̄-h̄) = {flat[s]}"
            )
        return arr

    def initial(self, z_init: Mapping[Point, int] | None, mask: int | None = None):
        """``z_init`` as a C-order object array over the box: the words at
        chain starts (``j̄ - h̄₃`` outside ``J_w``), ``& mask`` when given,
        and 0 elsewhere; ``None`` when ``z_init`` is empty."""
        if not z_init:
            return None
        out = _np.zeros(len(self.final), dtype=object)
        index = {j: k for k, j in enumerate(self.points)}
        for j, value in z_init.items():
            k = index.get(tuple(j))
            if k is not None and not self.z_in[k]:
                out[k] = value if mask is None else value & mask
        return out.reshape(self.shape)


@dataclass
class ModelRun:
    """Result of one bit-level model execution."""

    #: z word at every word index point (mod 2^{2p-1})
    z_words: dict[Point, int]
    #: z words at the ends of the accumulation chains (j̄ + h̄₃ outside J_w)
    outputs: dict[Point, int]
    sim: SimulationResult
    dropped_bits: int
    max_summands: int


class BitLevelModelMachine:
    """Execute a model-(3.5) instance bit by bit on a mapped array.

    ``backend`` selects the simulator (``"pointwise"`` | ``"compiled"``;
    ``None`` defers to :func:`repro.machine.simulator.default_backend`).
    Under the compiled backend the run executes the design's compiled
    program for ``p <= 62``; wider words run the per-point ``compute``.
    """

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
        self.box = WordBox(self.h1, self.h2, self.h3, lowers, uppers)
        self.binding: dict[str, int] = {}

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
        box, p = self.box, self.p
        x = box.words(x_words, "x", p)
        y = box.words(y_words, "y", p)
        z0 = box.initial(z_init, (1 << (2 * p - 1)) - 1)
        result, store, state = self._simulate(x, y, z0)

        # Under Expansion I, non-final iterations hold a position-wise
        # redundant state; words are extracted at chain-final iterations
        # only.  Under Expansion II, every iteration has a complete word at
        # its boundary.
        if self.expansion.key == "I":
            sel = box.final_index
        else:
            sel = _np.arange(len(box.final))
        points = box.points
        z_words = dict(zip(
            (points[k] for k in sel.tolist()), self._words_at(store, sel)
        ))
        outputs = {points[k]: z_words[points[k]] for k in box.final_index.tolist()}
        return ModelRun(
            z_words=z_words,
            outputs=outputs,
            sim=result,
            dropped_bits=state["dropped"],
            max_summands=state["max_summands"],
        )

    def _simulate(self, x, y, z0):
        """Run checked word arrays (:meth:`WordBox.words`,
        :meth:`WordBox.initial`); return ``(result, store, state)``."""
        state = {"dropped": 0, "max_summands": 0}
        sim = SpaceTimeSimulator(
            self.mapping, self.algorithm, self.binding, backend=self.backend
        )
        if sim.backend == "compiled" and self.p <= 62:
            result = sim.run(None, kernel=self._kernel(x, y, z0, state))
        else:
            result = sim.run(self._compute(x, y, z0, state))
        return result, sim.store, state

    def _kernel(self, x, y, z0, state):
        """The operands as the compiled program reads them."""
        from repro.compile.model import ModelKernel

        p = self.p
        shifts = _np.arange(p, dtype=_np.int64)
        xbits = ((x[..., None] >> shifts) & 1).astype(_np.int8)
        ybits = ((y[..., None] >> shifts) & 1).astype(_np.int8)
        zbits = None
        if z0 is not None:
            zbits = ((z0[..., None] >> _np.array(range(2 * p - 1), dtype=object))
                     & 1).astype(_np.int8)
        box = self.box
        key = (self.h1, self.h2, self.h3, box.lowers, box.uppers, p,
               self.expansion.key)
        return ModelKernel(key, xbits, ybits, zbits, state)

    def _compute(self, x, y, z0, state):
        """The per-point add-shift cell: one description of the processor's
        state transition, which the compiled program reproduces."""
        n, p = self.n, self.p
        exp1 = self.expansion.key == "I"
        box = self.box

        # Per-word-point constants, computed once per run: each operand's
        # chain predecessor (None at a chain start), whether the point ends
        # its accumulation chain, and the boundary input bits.
        def back(j, h, inside):
            return tuple(a - b for a, b in zip(j, h)) if inside else None

        z_flat = [0] * len(box.final) if z0 is None else z0.reshape(-1).tolist()
        words = {}
        for j, xv, yv, zv, x_in, y_in, z_in, final in zip(
            box.points, x.reshape(-1).tolist(), y.reshape(-1).tolist(),
            z_flat, box.x_in.tolist(), box.y_in.tolist(),
            box.z_in.tolist(), box.final.tolist(),
        ):
            words[j] = (
                back(j, self.h1, x_in), back(j, self.h2, y_in),
                back(j, self.h3, z_in), final,
                to_bits(xv, p), to_bits(yv, p),
                to_bits(zv, 2 * p - 1) if zv else None,
            )

        def carry_out(store, q, j, i1, i2, shift, bit, var):
            """Keep a carry (shift 1) or second carry (shift 2) in its row,
            or re-route it past column p by weight."""
            if i2 + shift <= p:
                store.put(var, q, bit)
            elif bit:
                pos = i1 + i2 - 1 + shift
                if pos <= 2 * p - 1:
                    # Boundary re-route along the [1,0]ᵀ (i1) direction to
                    # the column-p owner of this weight.
                    store.add_pending("nr", (*j, pos - p + 1, p), 1)
                else:
                    state["dropped"] += 1

        def compute(q: Point, store) -> None:
            j = q[:n]
            i1 = q[n]
            i2 = q[n + 1]
            x_src, y_src, z_src, final, xb, yb, zb = words[j]

            # x bit (index i2 of the multiplicand word): enters at i1 = 1
            # from the chain predecessor (or as a boundary input), moves
            # along i1 elsewhere.
            if i1 > 1:
                xbit = store.get("x", (*j, i1 - 1, i2))
            elif x_src is None:
                xbit = xb[i2 - 1]
            else:
                xbit = store.get("x", (*x_src, 1, i2))
            store.put("x", q, xbit)

            # y bit (index i1 of the multiplier word), along i2.
            if i2 > 1:
                ybit = store.get("y", (*j, i1, i2 - 1))
            elif y_src is None:
                ybit = yb[i1 - 1]
            else:
                ybit = store.get("y", (*y_src, i1, 1))
            store.put("y", q, ybit)

            inputs = xbit & ybit
            # The c, δ̄₃ s and c' reads have their source inside the
            # lattice, where it is always written: no boundary default, so
            # a schedule that reads one before its write raises instead of
            # summing a 0.
            if i2 > 1:
                inputs += store.get("c", (*j, i1, i2 - 1))
            inputs += store.pop_pending("nr", q)

            # A chain's first iteration takes its initial z word as a
            # boundary input: bit w at the boundary point of weight w.
            boundary = i1 == p or i2 == 1
            if boundary and zb is not None and z_src is None:
                inputs += zb[i1 + i2 - 2]
            if exp1:
                # Expansion I: position-wise z forwarding at every point;
                # the δ̄₃ collapse and c' only at the chain's last iteration.
                if z_src is not None:
                    inputs += store.get("s", (*z_src, i1, i2))
                if final:
                    if i1 > 1 and i2 < p:
                        inputs += store.get("s", (*j, i1 - 1, i2 + 1))
                    if i2 > 2:
                        inputs += store.get("c2", (*j, i1, i2 - 2))
            else:
                # Expansion II: the δ̄₃ collapse everywhere; the previous
                # iteration's final z bits injected at the boundary; c' on
                # the i1 = p hyperplane.
                if i1 > 1 and i2 < p:
                    inputs += store.get("s", (*j, i1 - 1, i2 + 1))
                if boundary and z_src is not None:
                    inputs += store.get("s", (*z_src, i1, i2))
                if i1 == p and i2 > 2:
                    inputs += store.get("c2", (*j, i1, i2 - 2))

            if inputs > 7:
                raise AssertionError(f"compressor overflow at {q}: {inputs}")
            if inputs > state["max_summands"]:
                state["max_summands"] = inputs
            store.put("s", q, inputs & 1)
            carry_out(store, q, j, i1, i2, 1, (inputs >> 1) & 1, "c")
            carry_out(store, q, j, i1, i2, 2, (inputs >> 2) & 1, "c2")

        return compute

    def _words_at(self, store, sel) -> list[int]:
        """The z words at the flat word indices ``sel``: the boundary sum
        bits ``(w, 1)`` and ``(p, k)`` of each, weighted by position.

        A compiled run's dense store is read in one batch when the words
        fit an int64 lane (same read accounting); otherwise bit by bit."""
        p = self.p
        nbits = 2 * p - 1
        s = getattr(store, "_arrays", {}).get("s")
        if s is not None and nbits <= 63:
            planes = s[_np.unravel_index(sel, self.box.shape)]
            bits = _np.concatenate((planes[:, :, 0], planes[:, p - 1, 1:]), axis=1)
            store.reads += len(sel) * nbits
            weights = _np.int64(1) << _np.arange(nbits, dtype=_np.int64)
            return (bits.astype(_np.int64) @ weights).tolist()
        points = self.box.points
        out = []
        for k in sel.tolist():
            j = points[k]
            value = 0
            for w in range(1, p + 1):
                value |= store.get("s", (*j, w, 1)) << (w - 1)
            for i2 in range(2, p + 1):
                value |= store.get("s", (*j, p, i2)) << (p + i2 - 2)
            out.append(value)
        return out

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
        box = self.box
        points = box.points
        z: dict[Point, int] = {}
        # In chain-position order, so each chain predecessor comes first.
        for k in _np.argsort(box.chain_pos, kind="stable").tolist():
            j = points[k]
            if box.z_in[k]:
                acc = z[tuple(a - b for a, b in zip(j, self.h3))]
            else:
                acc = z_init.get(j, 0)
            z[j] = (acc + x_words[j] * y_words[j]) & mask
        return {points[k]: z[points[k]] for k in box.final_index.tolist()}
