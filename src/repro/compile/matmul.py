"""The design compiler for the bit-level matmul lattice.

Specializes the add-shift compressor lattice of Example 3.1 (Expansion I
or II) to one concrete design ``T`` and problem size: everything a
per-slot interpreter would re-derive per run -- slot grouping, per-slot
neighbor masks, the five-subscript fancy indexing, boundary re-route
targets, the structural read/write census -- is resolved here, once, into
flat int32 index plans that one slot loop replays.

The program operates on *flattened* ``(u, u, u, p, p)`` C-order value
arrays, so every neighbor access is a precomputed flat index:

* own position ``o = ((((a·u + b)·u + c)·p + d)·p + e)``, which is also
  the point's row in the plan's C-order lattice, so the plan's
  slot-ordered permutation is the slot-ordered list of own indices;
* the in-row carry source is ``o - 1`` (``i2 - 1``), the Expansion sites
  sit at ``o - p²`` (``j3 - 1``), ``o - p + 1`` (``i1 - 1, i2 + 1``) and
  ``o - 2`` (``i2 - 2``);
* boundary re-routes (carries crossing ``i2 = p``) fall into three
  classes with *constant* schedule displacement: the ``C`` carry re-route
  (``Δt = π₄``), and the ``C2`` re-route from ``i2 = p-1``
  (``Δt = π₄ + π₅``) and from ``i2 = p`` (``Δt = 2π₄``).  A class is
  non-empty only at ``p >= 2``, where the read census has already
  required ``π₄ >= 1`` and ``π₅ >= 1`` (the ``d̄₄`` and ``d̄₅`` sites), so
  every re-route is a plain scatter into a later slot; the compiler
  asserts that invariant instead of guarding it at run time.

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

from typing import Sequence

import numpy as _np

from repro.compile.plan import SlotCounters, plan_for
from repro.mapping.transform import MappingMatrix

__all__ = [
    "MatmulSlotKernel",
    "CompiledMatmulProgram",
    "compile_matmul_program",
    "matmul_read_sites",
]

#: Indices of a run's flat value arrays in the tuple ``execute`` builds:
#: gathers name their source by it, and the carry stage of shift ``k``
#: keeps into array ``k`` (``C`` for the carry, ``C2`` for the second
#: carry).  ``N`` holds the pending re-routed carries.
_S, _C, _C2, _N = 0, 1, 2, 3


class MatmulSlotKernel:
    """The operands of one bit-level matmul run, as the compiled program
    reads them.

    :class:`~repro.machine.bitlevel.BitLevelMatmulMachine` passes one of
    these as ``kernel=`` so the ``compiled`` backend can run its design's
    :class:`CompiledMatmulProgram` instead of the per-point ``compute``.
    The signed coefficient-splitting driver
    (:func:`repro.machine.signed.signed_matmul`) runs through it
    unchanged, since splitting happens at the word level.

    ``state`` is the machine's ``{"dropped": .., "max_summands": ..}`` dict,
    updated in place as the pointwise compute would.
    """

    def __init__(
        self,
        u: int,
        p: int,
        expansion_key: str,
        x: Sequence[Sequence[int]],
        y: Sequence[Sequence[int]],
        state: dict,
    ):
        self.u = int(u)
        self.p = int(p)
        self.expansion_key = expansion_key
        self.state = state
        shifts = _np.arange(p, dtype=_np.int64)
        # x bit i2 of X[j1, j3]; y bit i1 of Y[j3, j2].
        self._xbits = (
            (_np.asarray(x, dtype=_np.int64)[:, :, None] >> shifts) & 1
        ).astype(_np.int8)
        self._ybits = (
            (_np.asarray(y, dtype=_np.int64)[:, :, None] >> shifts) & 1
        ).astype(_np.int8)


def matmul_read_sites(u: int, p: int, exp1: bool, lattice):
    """The uniform read sites of the bit-level matmul lattice.

    Returns ``[(displacement, mask), ...]`` where ``mask`` selects the
    lattice points whose compute performs a ``store.get`` along that fixed
    displacement (every such read hits a produced value).  The compiler
    folds this census into each program's structural counters.
    """
    j1, j2, j3 = lattice[:, 0], lattice[:, 1], lattice[:, 2]
    i1, i2 = lattice[:, 3], lattice[:, 4]
    sites = [
        ((0, 1, 0, 0, 0), (i1 == 1) & (j2 > 1)),  # x entry row, d̄ along j2
        ((0, 0, 0, 1, 0), i1 > 1),  # x pipelining d̄₄
        ((1, 0, 0, 0, 0), (i2 == 1) & (j1 > 1)),  # y entry column
        ((0, 0, 0, 0, 1), i2 > 1),  # y pipelining d̄₅
        ((0, 0, 0, 0, 1), i2 > 1),  # in-row carry
    ]
    if exp1:
        sites += [
            ((0, 0, 1, 0, 0), j3 > 1),  # position-wise z forwarding
            ((0, 0, 0, 1, -1), (j3 == u) & (i1 > 1) & (i2 < p)),
            ((0, 0, 0, 0, 2), (j3 == u) & (i2 > 2)),
        ]
    else:
        sites += [
            ((0, 0, 0, 1, -1), (i1 > 1) & (i2 < p)),  # δ̄₃ collapse
            ((0, 0, 1, 0, 0), ((i1 == p) | (i2 == 1)) & (j3 > 1)),
            ((0, 0, 0, 0, 2), (i1 == p) & (i2 > 2)),
        ]
    return sites


class CompiledMatmulProgram:
    """One design's compiled bit-level matmul program.

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

    def __init__(self, u, p, expansion_key, slots, index_bytes,
                 reads, causality_checks, writes_struct, links):
        self.u = int(u)
        self.p = int(p)
        self.expansion_key = expansion_key
        self.lowers = (1, 1, 1, 1, 1)
        self.uppers = (u, u, u, p, p)
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
        self._overflow = _make_overflow(u, p)

    # -- execution -----------------------------------------------------------
    def execute(self, kernel, store) -> SlotCounters:
        np = _np
        u, p = self.u, self.p
        shape = (u, u, u, p, p)
        int8 = np.int8
        # X and Y are pure pipelines: once every point has fired, their
        # dense contents are exactly the operand bit planes broadcast over
        # the non-carrying axes -- attach views, write nothing.
        Xv = np.broadcast_to(kernel._xbits[:, None, :, None, :], shape)
        Yv = np.broadcast_to(
            kernel._ybits.transpose(1, 0, 2)[None, :, :, :, None], shape
        )
        base = Xv & Yv  # xb & yb at every point, hoisted out of the slots
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
        overflow = self._overflow
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
                overflow(o, v)
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


def _make_overflow(u, p):
    """The compressor-overflow reporter: decode the flat own index back to
    the 1-based lattice point the pointwise machine names."""

    def _ovf(o, v):
        k = int(_np.argmax(v > 7))
        f = int(o[k])
        e = f % p
        f //= p
        d = f % p
        f //= p
        c = f % u
        f //= u
        b = f % u
        a = f // u
        pt = (a + 1, b + 1, c + 1, d + 1, e + 1)
        raise AssertionError(f"compressor overflow at {pt}: {int(v[k])}")

    return _ovf


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_matmul_program(
    mapping: MappingMatrix, u: int, p: int, expansion_key: str
) -> CompiledMatmulProgram:
    """Compile the (``T``, expansion, ``u``, ``p``) tuple to a program."""
    np = _np
    exp1 = expansion_key == "I"
    plan = plan_for(mapping, (1,) * 5, (u, u, u, p, p))

    # The structural read census (reads, causality checks, link traffic)
    # is a constant of the design; folding it here also performs the
    # per-site Π·d̄ >= 1 causality check.
    counters = SlotCounters()
    for displacement, mask in matmul_read_sites(u, p, exp1, plan.lattice):
        counters.account_site(mapping, displacement, int(mask.sum()))

    # Own flat index of every point in slot order, and the zero-based
    # coordinates the site masks test (int32 throughout: these are
    # whole-lattice temporaries).
    o = plan.order.astype(np.int32)
    e = o % p
    d = (o // p) % p
    c = (o // (p * p)) % u
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
        for n, a, b in zip(sizes, cuts, cuts[1:]):
            if a == b:
                out.append(None)
                continue
            if whole and b - a == n:
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

    # Read sites: (selection, source offset, source array).
    if exp1:
        expansion_reads = (
            (c > 0, -p * p, _S),                                  # j3 - 1
            ((c == u - 1) & (d > 0) & (e < p - 1), -p + 1, _S),
            ((c == u - 1) & (e > 1), -2, _C2),                    # C2, i2 - 2
        )
    else:
        expansion_reads = (
            ((d > 0) & (e < p - 1), -p + 1, _S),                  # δ̄₃ collapse
            (((d == p - 1) | (e == 0)) & (c > 0), -p * p, _S),
            ((d == p - 1) & (e > 1), -2, _C2),                    # C2, i2 - 2
        )
    pending = site(e == p - 1, 0)  # pending boundary re-routes land on i2 = p
    reads = [(site(e > 0, -1), _C), (pending, _N)]  # in-row carry from i2 - 1
    reads += [(site(m, q), var) for m, q, var in expansion_reads]

    keep1 = e <= p - 2  # C keep: i2 + 1 <= p
    keep2 = e <= p - 3  # C2 keep: i2 + 2 <= p
    writes_struct = 3 * plan.n_points + int(keep1.sum()) + int(keep2.sum())
    # Re-route classes in range: (name, selection, target offset, Δt).
    pi = mapping.schedule
    routes1 = (
        ("C from i2 = p", (e == p - 1) & (d <= p - 2), p, pi[3]),
    )
    routes2 = (
        ("C2 from i2 = p-1", (e == p - 2) & (d <= p - 2), p + 1, pi[3] + pi[4]),
        ("C2 from i2 = p", (e == p - 1) & (d <= p - 3), 2 * p, 2 * pi[3]),
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

    program = CompiledMatmulProgram(
        u, p, expansion_key, slots, sum(a.nbytes for a in kept),
        counters.reads, counters.causality_checks, writes_struct,
        counters.links,
    )
    program.busy = plan.busy_per_step()
    program.pe_busy = plan.pe_busy()
    program.first = plan.first
    program.last = plan.last
    program.n_points = plan.n_points
    return program
