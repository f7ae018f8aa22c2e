"""The design compiler for the model-(3.5) bit-level lattice.

Specializes the add-shift compressor lattice of Theorem 3.1 (Expansion I
or II) over a word box ``J_w`` with dependence vectors ``h̄₁``, ``h̄₂``,
``h̄₃`` to one concrete design ``T``: everything a per-slot interpreter
would re-derive per run -- slot grouping, per-slot neighbor masks,
boundary re-route targets, the structural read/write census -- is
resolved here, once, into flat int32 index plans that one slot loop
replays.  Matrix multiplication is the instance ``h̄₁ = (0,1,0)``,
``h̄₂ = (1,0,0)``, ``h̄₃ = (0,0,1)`` over ``[1..u]³``.

The program operates on *flattened* C-order value arrays over the
``(n+2)``-D box ``J_w × [1..p]²``, so every neighbor access is a
precomputed flat index:

* own position ``o``, which is also the point's row in the plan's
  C-order lattice, so the plan's slot-ordered permutation is the
  slot-ordered list of own indices;
* a word displacement ``h̄`` is the constant offset ``Σ h_k·stride_k``;
  the in-row carry source is ``o - 1`` (``i2 - 1``), the Expansion sites
  sit at ``o - off(h̄₃)`` (the previous word iteration), ``o - p + 1``
  (``i1 - 1, i2 + 1``) and ``o - 2`` (``i2 - 2``);
* which points read the previous word iteration, and which iteration is
  a chain's last, are the word-level predicates "``j̄ - h̄₃`` inside
  ``J_w``" and "``j̄ + h̄₃`` outside ``J_w``", gathered to the points
  once;
* boundary re-routes (carries crossing ``i2 = p``) fall into three
  classes with *constant* schedule displacement, read off ``Π``'s last
  two entries ``π_{i1}``, ``π_{i2}``: the ``C`` carry re-route
  (``Δt = π_{i1}``), and the ``C2`` re-route from ``i2 = p-1``
  (``Δt = π_{i1} + π_{i2}``) and from ``i2 = p`` (``Δt = 2π_{i1}``).  A
  class is non-empty only at ``p >= 2``, where the read census has
  already required ``π_{i1} >= 1`` and ``π_{i2} >= 1`` (the ``x`` and
  ``y`` pipelining sites), so every re-route is a plain scatter into a
  later slot; the compiler asserts that invariant instead of guarding it
  at run time.

``x`` and ``y`` are pure pipelines: the program never gathers them, it
attaches their bit planes broadcast over the lattice and counts their
reads in the census.  Initial accumulator words (``z_init``) enter as a
boundary input: their bits are added to the partial products at the
boundary points (``i1 = p`` or ``i2 = 1``) of each chain's first
iteration.

Each read or write *site* is one selection mask over the whole
slot-ordered lattice, computed once.  Its int32 selections and
gather/scatter indices are split at the slot boundaries into views of one
array per site.  A slot record holds, per site, ``None`` when no point of
the slot uses the site, and a ``None`` selection when every point does
(the statement then runs on the whole slot block).

What stays at run time is exactly the data-dependent part: gathering the
operand bit products, summing carries, the compressor-overflow check,
``max_summands``, and the realized/dropped re-route counts.  Everything
value-independent (store reads, causality checks, link traffic, keep
writes) is a compile-time constant folded into the returned
:class:`~repro.compile.plan.SlotCounters`.
"""

from __future__ import annotations

import numpy as _np

from repro.compile.plan import SlotCounters, plan_for
from repro.machine.model import WordBox
from repro.mapping.transform import MappingMatrix

__all__ = [
    "ModelKernel",
    "CompiledModelProgram",
    "compile_model_program",
]

#: Indices of a run's flat value arrays in the tuple ``execute`` builds:
#: gathers name their source by it, and the carry stage of shift ``k``
#: keeps into array ``k`` (``C`` for the carry, ``C2`` for the second
#: carry).  ``N`` holds the pending re-routed carries.
_S, _C, _C2, _N = 0, 1, 2, 3


class ModelKernel:
    """The operands of one model-(3.5) run, as the compiled program reads
    them.

    :class:`~repro.machine.model.BitLevelModelMachine` passes one of these
    as ``kernel=`` so the ``compiled`` backend runs its design's
    :class:`CompiledModelProgram` instead of the per-point ``compute``.

    ``key`` is the program's instance -- ``(h1, h2, h3, lowers, uppers,
    p, expansion_key)``; ``xbits``/``ybits`` are the ``int8`` bit planes
    of the operand words over the word box (shape ``J_w + (p,)``);
    ``zbits`` is ``None`` or the ``int8`` initial-accumulator bits over
    the whole lattice, nonzero only at chain-start boundary points.
    ``state`` is the machine's ``{"dropped": .., "max_summands": ..}``
    dict, updated in place as the pointwise compute would.
    """

    def __init__(self, key, xbits, ybits, zbits, state: dict):
        self.key = key
        self.xbits = xbits
        self.ybits = ybits
        self.zbits = zbits
        self.state = state


class CompiledModelProgram:
    """One design's compiled model-(3.5) program.

    Holds the per-slot index plans, the precomputed structural counters
    and utilization statistics.  ``execute`` replays the slot records
    against a fresh :class:`~repro.compile.plan.DenseValueStore`,
    reproducing the pointwise machine's values and counters bit for bit.

    ``slots`` holds one ``(o, reads, consumed, stages)`` record per time
    slot, in schedule order:

    * ``o`` -- the own flat indices of the slot's points;
    * ``reads`` -- ``(sel, q, var)`` per non-empty gather site: add
      array ``var`` at ``q`` into the slot's selected points;
    * ``consumed`` -- the pending re-route slots the reads emptied, or
      ``None``;
    * ``stages`` -- ``(shift, keep, drop, routes)`` per carry stage with
      work in the slot: ``keep`` is ``(sel, q)`` or ``None``, ``drop`` the
      selection of out-of-range re-routes or ``None``, ``routes`` the
      ``(sel, targets)`` of each non-empty re-route class.
    """

    def __init__(self, lowers, uppers, slots, index_bytes,
                 reads, causality_checks, writes_struct, links):
        self.lowers = tuple(lowers)
        self.uppers = tuple(uppers)
        self.shape = tuple(hi - lo + 1 for lo, hi in zip(lowers, uppers))
        self.slots = slots
        #: bytes of the int32 index arrays behind ``slots``
        self.index_bytes = int(index_bytes)
        self.reads = int(reads)
        self.causality_checks = int(causality_checks)
        self.writes_struct = int(writes_struct)
        self.links = dict(links)
        # Utilization statistics of the design (set by the compiler):
        # busy-per-step, per-PE busy beats, schedule extent, point count.
        self.busy: dict[int, int] = {}
        self.pe_busy: dict[tuple[int, ...], int] = {}
        self.first = 0
        self.last = -1
        self.n_points = 0

    # -- execution -----------------------------------------------------------
    def execute(self, kernel, store) -> SlotCounters:
        np = _np
        shape = self.shape
        p = shape[-1]
        int8 = np.int8
        # X and Y are pure pipelines: once every point has fired, their
        # dense contents are exactly the operand bit planes broadcast over
        # the lattice -- attach views, write nothing.
        Xv = np.broadcast_to(kernel.xbits[..., None, :], shape)
        Yv = np.broadcast_to(kernel.ybits[..., :, None], shape)
        base = Xv & Yv  # xb & yb at every point, hoisted out of the slots
        if kernel.zbits is not None:
            base += kernel.zbits  # initial z bits: a boundary input
        S = np.zeros(shape, int8)
        C = np.zeros(shape, int8)
        C2 = np.zeros(shape, int8)
        NR = np.zeros(shape, int8)

        always = np.broadcast_to(np.bool_(True), shape)
        i2_axis = np.arange(1, p + 1)
        store.attach("x", Xv, always)
        store.attach("y", Yv, always)
        store.attach("s", S, always)
        store.attach("c", C, np.broadcast_to(i2_axis <= p - 1, shape))
        store.attach("c2", C2, np.broadcast_to(i2_axis <= p - 2, shape))

        B = base.reshape(-1)
        arrays = (S.reshape(-1), C.reshape(-1), C2.reshape(-1), NR.reshape(-1))
        Sf, N = arrays[_S], arrays[_N]
        add_at = np.add.at
        ms = w = dd = 0
        for o, reads, consumed, stages in self.slots:
            v = B[o]
            for sel, q, var in reads:
                if sel is None:
                    v += arrays[var][q]
                else:
                    v[sel] += arrays[var][q]
            if consumed is not None:
                N[consumed] = 0
            m = int(v.max())
            if m > 7:
                self._overflow(o, v)
            if m > ms:
                ms = m
            Sf[o] = v & 1
            for shift, keep, drop, routes in stages:
                b = (v >> shift) & 1
                if keep is not None:
                    sel, q = keep
                    arrays[shift][q] = b if sel is None else b[sel]
                if drop is not None:
                    dd += int(b[drop].sum())
                for sel, t in routes:
                    r = b[sel]
                    w += int(r.sum())
                    add_at(N, t, r)
        if NR.any():  # every pending slot must have been consumed
            raise AssertionError("unconsumed re-routed carries at end of run")
        state = kernel.state
        state["dropped"] = state.get("dropped", 0) + dd
        state["max_summands"] = max(int(state.get("max_summands", 0)), ms)
        return SlotCounters(
            reads=self.reads,
            writes=self.writes_struct + w,
            causality_checks=self.causality_checks,
            links=dict(self.links),
        )

    def _overflow(self, o, v):
        """Report a compressor overflow at the 1-based lattice point the
        pointwise machine names."""
        k = int(_np.argmax(v > 7))
        idx = _np.unravel_index(int(o[k]), self.shape)
        pt = tuple(int(i) + lo for i, lo in zip(idx, self.lowers))
        raise AssertionError(f"compressor overflow at {pt}: {int(v[k])}")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_model_program(
    mapping: MappingMatrix, h1, h2, h3, lowers, uppers, p: int,
    expansion_key: str,
) -> CompiledModelProgram:
    """Compile one (``T``, model, box, ``p``, expansion) instance."""
    np = _np
    exp1 = expansion_key == "I"
    n = len(h1)
    box_lo = (*lowers, 1, 1)
    box_hi = (*uppers, p, p)
    plan = plan_for(mapping, box_lo, box_hi)
    box = WordBox(h1, h2, h3, lowers, uppers)

    def offset(disp):
        """The flat displacement of a lattice vector ``(h̄, di1, di2)``."""
        return (box.offset(disp[:n]) * p + disp[n]) * p + disp[n + 1]

    # Own flat index of every point in slot order, and the zero-based bit
    # coordinates and word-level predicates the site masks test (int32 /
    # bool throughout: these are whole-lattice temporaries).
    o = plan.order.astype(np.int32)
    e = o % p
    d = (o // p) % p
    word = o // (p * p)
    zin = box.z_in[word]
    sizes = [end - start for start, end in plan.slices]
    bounds = [start for start, _ in plan.slices] + [plan.n_points]
    starts = np.asarray(bounds[:-1], dtype=np.int32)
    local = np.arange(plan.n_points, dtype=np.int32) - np.repeat(starts, sizes)
    kept = [o]

    def site(mask, offset=None, whole=True):
        """One site's per-slot entries: ``None`` where no point of the slot
        is selected, else ``(sel, idx)`` -- views into one array each.
        ``sel`` is ``None`` for a fully selected slot when ``whole``;
        ``idx`` is the selected own indices plus ``offset`` (``None``
        without one)."""
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

    # Expansion read sites: (displacement, selection, source array).
    zero = (0,) * n
    h3_site = (*h3, 0, 0)
    if exp1:
        fin = box.final[word]
        expansion_reads = (
            (h3_site, zin, _S),                        # previous iteration
            ((*zero, 1, -1), fin & (d > 0) & (e < p - 1), _S),
            ((*zero, 0, 2), fin & (e > 1), _C2),       # C2, i2 - 2
        )
    else:
        expansion_reads = (
            ((*zero, 1, -1), (d > 0) & (e < p - 1), _S),  # δ̄₃ collapse
            (h3_site, ((d == p - 1) | (e == 0)) & zin, _S),
            ((*zero, 0, 2), (d == p - 1) & (e > 1), _C2),  # C2, i2 - 2
        )
    carry = e > 0  # in-row carry from i2 - 1 (also the y pipelining read)

    # The structural read census (reads, causality checks, link traffic)
    # is a constant of the design; folding it here also performs the
    # per-site Π·d̄ >= 1 causality check.  The x/y entry reads happen at
    # the i1 = 1 row / i2 = 1 column of every word whose operand arrives
    # along its chain.
    n_carry = int(carry.sum())
    counters = SlotCounters()
    for displacement, count in (
        ((*h1, 0, 0), int(box.x_in.sum()) * p),
        ((*zero, 1, 0), int((d > 0).sum())),           # x pipelining
        ((*h2, 0, 0), int(box.y_in.sum()) * p),
        ((*zero, 0, 1), n_carry),                      # y pipelining
        ((*zero, 0, 1), n_carry),                      # in-row carry
        *((disp, int(mask.sum())) for disp, mask, _ in expansion_reads),
    ):
        counters.account_site(mapping, displacement, count)

    pending = site(e == p - 1, 0)  # pending boundary re-routes land on i2 = p
    reads = [(site(carry, -1), _C), (pending, _N)]
    reads += [(site(mask, -offset(disp)), var)
              for disp, mask, var in expansion_reads]

    keep1 = e <= p - 2  # C keep: i2 + 1 <= p
    keep2 = e <= p - 3  # C2 keep: i2 + 2 <= p
    writes_struct = 3 * plan.n_points + int(keep1.sum()) + int(keep2.sum())
    # Re-route classes in range: (name, selection, target offset, Δt).
    pi1, pi2 = mapping.schedule[n], mapping.schedule[n + 1]
    routes1 = (
        ("C from i2 = p", (e == p - 1) & (d <= p - 2), p, pi1),
    )
    routes2 = (
        ("C2 from i2 = p-1", (e == p - 2) & (d <= p - 2), p + 1, pi1 + pi2),
        ("C2 from i2 = p", (e == p - 1) & (d <= p - 3), 2 * p, 2 * pi1),
    )
    for name, mask, _, dt in routes1 + routes2:
        if dt < 1 and mask.any():
            raise AssertionError(
                f"causality violation: re-route class {name} has schedule "
                f"step Δt = {dt} < 1 under {mapping.name}, which the read "
                f"census should have refused"
            )
    # Re-route candidates out of range drop (the dropped-bits census).
    drop1 = (e == p - 1) & (d > p - 2)
    drop2 = ((e == p - 2) & (d == p - 1)) | ((e == p - 1) & (d >= p - 2))
    stages = (
        (1, site(keep1, 0), site(drop1, whole=False),
         [site(m, t, whole=False) for _, m, t, _ in routes1]),
        (2, site(keep2, 0), site(drop2, whole=False),
         [site(m, t, whole=False) for _, m, t, _ in routes2]),
    )

    slots = []
    for k, (start, end) in enumerate(plan.slices):
        slot_reads = tuple(
            (*entries[k], var) for entries, var in reads
            if entries[k] is not None
        )
        consumed = None if pending[k] is None else pending[k][1]
        slot_stages = []
        for shift, keep, drop, routes in stages:
            kk, dr = keep[k], drop[k]
            rr = tuple(r[k] for r in routes if r[k] is not None)
            if kk is not None or dr is not None or rr:
                slot_stages.append(
                    (shift, kk, None if dr is None else dr[0], rr)
                )
        slots.append((o[start:end], slot_reads, consumed, tuple(slot_stages)))

    program = CompiledModelProgram(
        box_lo, box_hi, slots, sum(a.nbytes for a in kept),
        counters.reads, counters.causality_checks, writes_struct,
        counters.links,
    )
    program.busy = plan.busy_per_step()
    program.pe_busy = plan.pe_busy()
    program.first = plan.first
    program.last = plan.last
    program.n_points = plan.n_points
    return program
