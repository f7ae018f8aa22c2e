"""The compiler for the model-(3.5) bit-level lattice.

Specializes the add-shift compressor lattice of Theorem 3.1 (Expansion I
or II) over a word box ``J_w`` with dependence vectors ``h̄₁``, ``h̄₂``,
``h̄₃``.  Matrix multiplication is the instance ``h̄₁ = (0,1,0)``,
``h̄₂ = (1,0,0)``, ``h̄₃ = (0,0,1)`` over ``[1..u]³``.

A bit's value depends only on bits of its own ``h̄₃`` accumulation chain:
``x`` and ``y`` are pure pipelines whose bits are the operand words', and
every ``s``/``c``/``c2`` read and carry re-route stays inside one chain's
``(k, i1, i2)`` lattice, ``k`` a word's position along its chain.  That
lattice is the same for every chain, and once a design has passed its
census the values do not depend on ``T`` either.  So a compiled run has
two parts:

* the **value program** (:func:`value_program`), compiled once per
  (chain length ``K``, ``p``, expansion) and shared by every design and
  box with that chain shape.  The chains are end-aligned in a ``(K, C)``
  grid (:class:`~repro.machine.model.WordBox`'s chain layout); a shorter
  chain is padded before its start with zero bits, which stay zero.  The
  program walks the ``K·p²`` points in the fixed wavefronts
  ``t* = k + 2·i1 + i2``, and each point is a row holding all ``C``
  chains, so a slot is a few row gathers and scatters over ``(K·p², C)``
  ``int8`` arrays;
* the **design census** (:func:`compile_model_program`): the schedule
  plan's conflict check, the ``Π·d̄ >= 1`` read census, the re-route
  ``Δt`` assertions, the link and write counts and the busy/PE
  statistics, all from word-predicate counts times bit-plane mask counts.

Rows are flat C-order indices over ``(k, i1, i2)``, so every neighbor is
a constant row offset from the own row ``o``: the in-row carry at
``o - 1`` (``i2 - 1``), the previous word iteration at ``o - p²``, the
δ̄₃ collapse at ``o - p + 1`` (``i1 - 1, i2 + 1``) and ``c'`` at ``o - 2``
(``i2 - 2``).  "Not the chain's first iteration" is ``k >= 1`` (padding
reads as 0) and "the chain's last" is ``k = K - 1``.  Every such
dependence steps ``t*`` by 1 or 2.

Boundary re-routes (carries crossing ``i2 = p``) fall into three classes
with *constant* displacement: the ``C`` carry re-route to ``(i1 + 1, p)``
(``Δt = π_{i1}`` under ``T``, 2 under ``t*``), and the ``C2`` re-route
from ``i2 = p-1`` to ``(i1 + 1, p)`` (``Δt = π_{i1} + π_{i2}``, 3) and
from ``i2 = p`` to ``(i1 + 2, p)`` (``Δt = 2π_{i1}``, 4).  A class is
non-empty only at ``p >= 2``, where the read census has already required
``π_{i1} >= 1`` and ``π_{i2} >= 1`` (the ``x`` and ``y`` pipelining
sites), so every re-route lands before its target fires; the census
asserts that invariant instead of guarding it at run time.

Initial accumulator words (``z_init``) enter as a boundary input: their
bits are added to the partial products at the boundary points (``i1 = p``
or ``i2 = 1``) of each chain's first iteration.

What stays at run time is exactly the data-dependent part: the operand
bit products, summing carries, the compressor-overflow check,
``max_summands``, and the realized/dropped re-route counts.  Everything
value-independent (store reads, causality checks, link traffic, keep
writes) is a constant of the design folded into the returned
:class:`~repro.compile.plan.SlotCounters`.  A compressor overflow names
the overflowing point the design fires first, as the pointwise machine
does.
"""

from __future__ import annotations

import functools

import numpy as _np

from repro.compile.plan import SlotCounters, plan_for
from repro.machine.model import WordBox
from repro.mapping.transform import MappingMatrix

__all__ = [
    "ModelKernel",
    "ValueProgram",
    "CompiledModelProgram",
    "value_program",
    "compile_model_program",
]

#: Indices of a run's value arrays in the tuple ``execute`` builds:
#: gathers name their source by it, and the carry stage of shift ``k``
#: keeps into array ``k`` (``C`` for the carry, ``C2`` for the second
#: carry).  ``N`` holds the pending re-routed carries.
_S, _C, _C2, _N = 0, 1, 2, 3

#: Value programs keep O(K·p²) index rows (about 145 KiB at K = p = 16),
#: shared by every design and box with one chain shape.
_VALUE_MEMO_CAPACITY = 16


class ModelKernel:
    """The operands of one model-(3.5) run, as the compiled program reads
    them.

    :class:`~repro.machine.model.BitLevelModelMachine` passes one of these
    as ``kernel=`` so the ``compiled`` backend runs its design's
    :class:`CompiledModelProgram` instead of the per-point ``compute``.

    ``key`` is the program's instance -- ``(h1, h2, h3, lowers, uppers,
    p, expansion_key)``; ``xbits``/``ybits`` are the ``int8`` bit planes
    of the operand words over the word box (shape ``J_w + (p,)``);
    ``zbits`` is ``None`` or the ``int8`` bits of the initial accumulator
    words (shape ``J_w + (2p - 1,)``), nonzero only at chain starts.
    ``state`` is the machine's ``{"dropped": .., "max_summands": ..}``
    dict, updated in place as the pointwise compute would.
    """

    def __init__(self, key, xbits, ybits, zbits, state: dict):
        self.key = key
        self.xbits = xbits
        self.ybits = ybits
        self.zbits = zbits
        self.state = state


# ---------------------------------------------------------------------------
# Sites: one chain iteration's bit plane, d = i1 - 1 and e = i2 - 1
# ---------------------------------------------------------------------------

def _expansion_reads(exp1: bool, p: int):
    """The expansion's ``s``/``c2`` read sites: ``(steps back along h̄₃,
    (di1, di2), chain predicate, plane predicate, source array)``.  The
    chain predicate ``"z_in"`` selects the iterations after a chain's
    first, ``"final"`` its last, ``None`` all of them."""
    if exp1:
        return (
            (1, (0, 0), "z_in", lambda d, e: e >= 0, _S),  # previous iteration
            (0, (1, -1), "final", lambda d, e: (d > 0) & (e < p - 1), _S),
            (0, (0, 2), "final", lambda d, e: e > 1, _C2),  # C2, i2 - 2
        )
    return (
        (0, (1, -1), None, lambda d, e: (d > 0) & (e < p - 1), _S),  # δ̄₃ collapse
        (1, (0, 0), "z_in", lambda d, e: (d == p - 1) | (e == 0), _S),
        (0, (0, 2), None, lambda d, e: (d == p - 1) & (e > 1), _C2),  # C2, i2 - 2
    )


def _carry_stages(p: int):
    """Each carry stage's write sites: ``(shift, keep, drop, routes)`` --
    the in-row keep (``i2 + shift <= p``), the re-route candidates past
    weight ``2p - 1`` (the dropped-bits census), and the in-range boundary
    re-route classes ``(name, plane predicate, (di1, di2))``, displaced to
    the column-``p`` owner of the carry's weight."""
    return (
        (1, lambda d, e: e <= p - 2,
         lambda d, e: (e == p - 1) & (d > p - 2),
         (("C from i2 = p", lambda d, e: (e == p - 1) & (d <= p - 2), (1, 0)),)),
        (2, lambda d, e: e <= p - 3,
         lambda d, e: ((e == p - 2) & (d == p - 1)) | ((e == p - 1) & (d >= p - 2)),
         (("C2 from i2 = p-1", lambda d, e: (e == p - 2) & (d <= p - 2), (1, 1)),
          ("C2 from i2 = p", lambda d, e: (e == p - 1) & (d <= p - 3), (2, 0)))),
    )


# ---------------------------------------------------------------------------
# The value program
# ---------------------------------------------------------------------------

class ValueProgram:
    """The design-independent value program of one (chain length, ``p``,
    expansion).

    ``slots`` holds one ``(o, reads, stages)`` record per wavefront
    ``t* = k + 2·i1 + i2``, in order:

    * ``o`` -- the rows of the wavefront's points;
    * ``reads`` -- ``(sel, q, var)`` per non-empty gather site: add rows
      ``q`` of array ``var`` into the selected rows;
    * ``stages`` -- ``(shift, keep, drop, routes)`` per carry stage with
      work in the slot: ``keep`` is ``(sel, q)`` or ``None``, ``drop`` the
      selection of out-of-range re-routes or ``None``, ``routes`` the
      ``(sel, targets)`` of each non-empty re-route class (one class's
      targets in one slot are distinct rows).

    A ``None`` selection means every row of the slot.
    """

    def __init__(self, slots, index_bytes):
        self.slots = slots
        #: bytes of the int32 index arrays behind ``slots``
        self.index_bytes = int(index_bytes)

    def execute(self, base):
        """Run the lattice from ``base``, each point's ``(K·p², C)``
        ``int8`` boundary inputs (operand bit products and initial bits).

        Returns ``(S, C, C2, routed, dropped, max_summands, overflows)``:
        the value arrays in ``base``'s layout, the realized re-route
        writes, the carries dropped past weight ``2p - 1``, the summand
        watermark, and ``(o, v)`` for every slot where some point's
        summands exceed 7 (``v`` holds the slot's sums).
        """
        np = _np
        # One block, not four: glibc maps four separate 1 MiB blocks (u=p=16)
        # afresh and trims them back to the system on every run, about
        # 1,300 page faults a run; freeing one 4 MiB block raises its
        # thresholds, so later runs reuse the heap.
        S, C, C2, N = np.zeros((4, *base.shape), dtype=base.dtype)
        arrays = (S, C, C2, N)
        ms = dd = 0
        overflows = []
        for o, reads, stages in self.slots:
            v = base[o]
            for sel, q, var in reads:
                if sel is None:
                    v += arrays[var][q]
                else:
                    v[sel] += arrays[var][q]
            m = int(v.max())
            if m > 7:
                overflows.append((o, v))
            if m > ms:
                ms = m
            S[o] = v & 1
            for shift, keep, drop, routes in stages:
                b = (v >> shift) & 1
                if keep is not None:
                    sel, q = keep
                    arrays[shift][q] = b if sel is None else b[sel]
                if drop is not None:
                    dd += int(b[drop].sum())
                for sel, t in routes:
                    N[t] += b[sel]
        # Each pending row is read once, in its own slot, after every
        # re-route into it: N ends holding each realized re-route once.
        return S, C, C2, int(N.sum()), dd, ms, overflows


@functools.lru_cache(maxsize=_VALUE_MEMO_CAPACITY)
def value_program(chain_length: int, p: int, expansion_key: str) -> ValueProgram:
    """The (memoized) value program of chains of ``chain_length`` words at
    ``p`` bits under expansion ``expansion_key``."""
    np = _np
    K = int(chain_length)
    n_rows = K * p * p
    if not n_rows:
        return ValueProgram([], 0)
    rows = np.arange(n_rows)
    times = rows // (p * p) + 2 * (rows // p % p) + rows % p
    # Rows in wavefront order (C order within one), and the zero-based
    # chain position and bit coordinates the site masks test.
    o = np.argsort(times, kind="stable").astype(np.int32)
    sizes = np.bincount(times).tolist()
    bounds = [0, *np.cumsum(sizes).tolist()]
    k, d, e = o // (p * p), o // p % p, o % p
    chain = {None: True, "z_in": k > 0, "final": k == K - 1}
    local = np.arange(n_rows, dtype=np.int32) - np.repeat(
        np.asarray(bounds[:-1], dtype=np.int32), sizes
    )
    kept = [o]

    def site(mask, offset=None, whole=True):
        """One site's per-slot entries: ``None`` where no row of the slot
        is selected, else ``(sel, idx)`` -- views into one array each.
        ``sel`` is ``None`` for a fully selected slot when ``whole``;
        ``idx`` is the selected rows plus ``offset`` (``None`` without
        one)."""
        pos = np.flatnonzero(mask)
        sel = local[pos]
        idx = None if offset is None else o[pos] + offset
        cuts = np.searchsorted(pos, bounds).tolist()
        out = []
        sel_kept = False
        for size, a, b in zip(sizes, cuts, cuts[1:]):
            if a == b:
                out.append(None)
                continue
            if whole and b - a == size:
                s = None
            else:
                s = sel[a:b]
                sel_kept = True
            out.append((s, None if idx is None else idx[a:b]))
        if sel_kept:
            kept.append(sel)
        if idx is not None and len(idx):
            kept.append(idx)
        return out

    def row_offset(steps, di1, di2):
        return (steps * p + di1) * p + di2

    reads = [
        (site(e > 0, -1), _C),       # in-row carry
        (site(e == p - 1, 0), _N),   # pending re-routes land on i2 = p
    ]
    reads += [
        (site(chain[pred] & plane(d, e), -row_offset(steps, *disp)), var)
        for steps, disp, pred, plane, var in _expansion_reads(
            expansion_key == "I", p
        )
    ]
    stages = [
        (shift, site(keep(d, e), 0), site(drop(d, e), whole=False),
         [site(plane(d, e), row_offset(0, *disp), whole=False)
          for _, plane, disp in routes])
        for shift, keep, drop, routes in _carry_stages(p)
    ]

    slots = []
    for s, (start, end) in enumerate(zip(bounds, bounds[1:])):
        slot_reads = tuple(
            (*entries[s], var) for entries, var in reads
            if entries[s] is not None
        )
        slot_stages = []
        for shift, keep, drop, routes in stages:
            kk, dr = keep[s], drop[s]
            rr = tuple(r[s] for r in routes if r[s] is not None)
            if kk is not None or dr is not None or rr:
                slot_stages.append(
                    (shift, kk, None if dr is None else dr[0], rr)
                )
        slots.append((o[start:end], slot_reads, tuple(slot_stages)))
    return ValueProgram(slots, sum(a.nbytes for a in kept))


# ---------------------------------------------------------------------------
# The design program
# ---------------------------------------------------------------------------

class CompiledModelProgram:
    """One design's compiled model-(3.5) program: the design's census and
    utilization statistics over the shared :class:`ValueProgram`.

    ``execute`` lays the operand bits out in the chain grid, runs the
    value program, and attaches the values to a fresh
    :class:`~repro.compile.plan.DenseValueStore` over the box, reproducing
    the pointwise machine's values and counters bit for bit.
    """

    def __init__(self, mapping, plan, box, p, values, reads,
                 causality_checks, writes_struct, links):
        self.mapping = mapping
        #: the design's :class:`~repro.compile.plan.SchedulePlan`: its
        #: busy-per-step, per-PE busy beats, schedule extent, point count
        self.plan = plan
        self.box = box
        self.p = int(p)
        self.lowers = (*box.lowers, 1, 1)
        self.uppers = (*box.uppers, p, p)
        self.shape = (*box.shape, p, p)
        self.values = values
        #: bytes of the index arrays the run replays (the shared value
        #: program's)
        self.index_bytes = values.index_bytes
        self.reads = int(reads)
        self.causality_checks = int(causality_checks)
        self.writes_struct = int(writes_struct)
        self.links = dict(links)

    # -- execution -----------------------------------------------------------
    def execute(self, kernel, store) -> SlotCounters:
        np = _np
        box, p, shape = self.box, self.p, self.shape
        K, C = box.chain_length, box.n_chains

        # x bit i2 and y bit i1 at every point: a boundary input, since x
        # and y are pure pipelines.
        xg, yg = box.to_chains(kernel.xbits), box.to_chains(kernel.ybits)
        base = yg[:, :, None, :] & xg[:, None, :, :]
        if kernel.zbits is not None:
            # Bit w of a chain's initial word enters at the boundary point
            # of weight position w: (w, 1) for w <= p, else (p, w - p + 1).
            zg = box.to_chains(kernel.zbits)
            base[:, :, 0, :] += zg[:, :p]
            base[:, p - 1, 1:, :] += zg[:, p:]
        s, c, c2, routed, dropped, ms, overflows = self.values.execute(
            base.reshape(-1, C)
        )
        if overflows:
            self._overflow(overflows)

        def on_box(values):
            """A value array over the box (a view where the layout lets)."""
            return box.from_chains(values.reshape(K, p, p, C))

        # X and Y hold the operand bit planes broadcast over the lattice.
        always = np.broadcast_to(np.bool_(True), shape)
        i2_axis = np.arange(1, p + 1)
        store.attach("x", np.broadcast_to(kernel.xbits[..., None, :], shape),
                     always)
        store.attach("y", np.broadcast_to(kernel.ybits[..., :, None], shape),
                     always)
        store.attach("s", on_box(s), always)
        store.attach("c", on_box(c), np.broadcast_to(i2_axis <= p - 1, shape))
        store.attach("c2", on_box(c2),
                     np.broadcast_to(i2_axis <= p - 2, shape))
        state = kernel.state
        state["dropped"] = state.get("dropped", 0) + dropped
        state["max_summands"] = max(int(state.get("max_summands", 0)), ms)
        return SlotCounters(
            reads=self.reads,
            writes=self.writes_struct + routed,
            causality_checks=self.causality_checks,
            links=dict(self.links),
        )

    def _overflow(self, overflows):
        """Raise the compressor overflow at the point the design fires
        first: least ``Π·q``, then first in C order, the pointwise
        machine's firing order.  Every point fired before it depends only
        on points fired earlier still, so none of them overflowed and it
        holds the pointwise machine's sum."""
        np = _np
        box, p = self.box, self.p
        word = box.to_chains(np.arange(len(box.final)).reshape(box.shape))
        found = []
        for o, v in overflows:
            r, c = np.nonzero(v > 7)
            row = o[r].astype(np.int64)
            w = word[row // (p * p), c]
            q = np.stack([
                *(x + lo for x, lo in zip(np.unravel_index(w, box.shape),
                                          box.lowers)),
                row // p % p + 1, row % p + 1,
            ], axis=1)
            found.append((self.mapping.times_of(q),
                          (w * p + row // p % p) * p + row % p, q, v[r, c]))
        times, flat, points, sums = (
            np.concatenate(parts) for parts in zip(*found)
        )
        first = np.lexsort((flat, times))[0]
        pt = tuple(int(x) for x in points[first])
        raise AssertionError(f"compressor overflow at {pt}: {int(sums[first])}")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_model_program(
    mapping: MappingMatrix, h1, h2, h3, lowers, uppers, p: int,
    expansion_key: str,
) -> CompiledModelProgram:
    """Compile one (``T``, model, box, ``p``, expansion) instance: the
    design's census over the value program of its chain shape."""
    np = _np
    n = len(h1)
    plan = plan_for(mapping, (*lowers, 1, 1), (*uppers, p, p))
    box = WordBox(h1, h2, h3, lowers, uppers)
    words = {None: len(box.final), "z_in": int(box.z_in.sum()),
             "final": int(box.final.sum())}
    # One chain iteration's bit plane: a site selects (word predicate) x
    # (plane mask), so its count is a product of two counts.
    d, e = np.divmod(np.arange(p * p), p)
    zero = (0,) * n

    def count(pred, plane):
        return words[pred] * int(np.count_nonzero(plane(d, e)))

    # The structural read census (reads, causality checks, link traffic)
    # is a constant of the design; folding it here also performs the
    # per-site Π·d̄ >= 1 causality check.  The x/y entry reads happen at
    # the i1 = 1 row / i2 = 1 column of every word whose operand arrives
    # along its chain.
    n_carry = count(None, lambda d, e: e > 0)
    counters = SlotCounters()
    for displacement, reads_n in (
        ((*h1, 0, 0), int(box.x_in.sum()) * p),
        ((*zero, 1, 0), count(None, lambda d, e: d > 0)),  # x pipelining
        ((*h2, 0, 0), int(box.y_in.sum()) * p),
        ((*zero, 0, 1), n_carry),                           # y pipelining
        ((*zero, 0, 1), n_carry),                           # in-row carry
        *(((*(h3 if steps else zero), *disp), count(pred, plane))
          for steps, disp, pred, plane, _ in _expansion_reads(
              expansion_key == "I", p)),
    ):
        counters.account_site(mapping, displacement, reads_n)

    writes_struct = 3 * plan.n_points
    for _, keep, _, routes in _carry_stages(p):
        writes_struct += count(None, keep)
        for name, plane, disp in routes:
            dt = mapping.time_of((*zero, *disp))
            if dt < 1 and count(None, plane):
                raise AssertionError(
                    f"causality violation: re-route class {name} has "
                    f"schedule step Δt = {dt} < 1 under {mapping.name}, "
                    f"which the read census should have refused"
                )

    return CompiledModelProgram(
        mapping, plan, box, p,
        value_program(box.chain_length, p, expansion_key),
        counters.reads, counters.causality_checks, writes_struct,
        counters.links,
    )
