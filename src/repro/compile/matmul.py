"""The design compiler for the bit-level matmul lattice.

Specializes the add-shift compressor lattice of Example 3.1 (Expansion I
or II) to one concrete design ``T`` and problem size: everything a
per-slot interpreter would re-derive per run -- slot grouping, per-slot
neighbor masks, the five-subscript fancy indexing, boundary re-route
targets, the structural read/write census -- is resolved here, once, into
flat int32 index plans and generated loop-free NumPy source.

The generated kernel operates on *flattened* ``(u, u, u, p, p)`` C-order
value arrays, so every neighbor access is a precomputed flat index:

* own position ``o = ((((a·u + b)·u + c)·p + d)·p + e)``;
* the in-row carry source is ``o - 1`` (``i2 - 1``), the Expansion sites
  sit at ``o - p²`` (``j3 - 1``), ``o - p + 1`` (``i1 - 1, i2 + 1``) and
  ``o - 2`` (``i2 - 2``);
* boundary re-routes (carries crossing ``i2 = p``) fall into three
  compile-time classes with *constant* schedule displacement: the ``C``
  carry re-route (``Δt = π₄``), and the ``C2`` re-route from ``i2 = p-1``
  (``Δt = π₄ + π₅``) and from ``i2 = p`` (``Δt = 2π₄``).  Classes with
  ``Δt >= 1`` compile to a plain scatter; classes with ``Δt < 1`` compile
  to a guard that raises a causality error iff a re-routed carry is
  actually realized at run time.

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

#: Per-slot index-plan arrays, bound into the kernel's environment.
#: ``*s`` names are selections into the slot block, ``*q`` gather sources,
#: ``*t`` scatter targets -- all flat indices into the raveled value
#: arrays.
_SLOT_ARRAYS = (
    "o",            # own flat index of every point in the slot
    "cs", "cq",     # in-row carry gather (i2 > 1)
    "ns", "nq",     # pending re-route gather (i2 = p)
    "g0s", "g0q",   # expansion read site 0 (S)
    "g1s", "g1q",   # expansion read site 1 (S)
    "g2s", "g2q",   # expansion read site 2 (C2)
    "ks", "kq",     # C keep scatter (i2 + 1 <= p)
    "q1s",          # C re-route candidates out of range (drop census)
    "r1s", "r1t",   # C re-route in range: selection + NR targets
    "k2s", "k2q",   # C2 keep scatter (i2 + 2 <= p)
    "q2s",          # C2 re-route candidates out of range
    "rAs", "rAt",   # C2 re-route class A (from i2 = p-1)
    "rBs", "rBt",   # C2 re-route class B (from i2 = p)
)


def _i32(a):
    return _np.ascontiguousarray(a, dtype=_np.int32)


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
    """One design's compiled bit-level matmul kernel.

    Holds the per-slot index plans, the precomputed structural counters
    and utilization statistics, and the ``exec``-compiled kernel
    function.  ``execute`` runs it against a fresh
    :class:`~repro.compile.plan.DenseValueStore`, reproducing the
    pointwise machine's values and counters bit for bit.
    """

    def __init__(self, u, p, expansion_key, slots, slot_times, rr_ok,
                 reads, causality_checks, writes_struct, links):
        self.u = int(u)
        self.p = int(p)
        self.expansion_key = expansion_key
        self.lowers = (1, 1, 1, 1, 1)
        self.uppers = (u, u, u, p, p)
        self.slots = slots
        self.slot_times = [int(t) for t in slot_times]
        #: compile-time causality verdict per re-route class (C, C2-A, C2-B)
        self.rr_ok = tuple(bool(x) for x in rr_ok)
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
        self._mapname = ["?"]
        self.source = _emit_matmul_source(self)
        env = {
            "_n": _np,
            "_add": _np.add.at,
            "_ovf": _make_overflow(u, p),
            "_bad": _make_badrr(self._mapname),
        }
        for k, rec in enumerate(self.slots):
            for name in _SLOT_ARRAYS:
                env[f"{name}{k}"] = rec[name]
        exec(compile(self.source, "<repro.compile.matmul>", "exec"), env)
        self._fn = env["_kernel"]

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

        self._mapname[0] = store._mapping.name
        ms, w, dd = self._fn(
            base.reshape(-1), S.reshape(-1), C.reshape(-1),
            C2.reshape(-1), NR.reshape(-1),
        )
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


def _make_badrr(mapname_ref):
    """Raise the re-route causality error (fires only when a re-routed
    carry is realized in a compile-time-bad class)."""

    def _bad(t):
        raise AssertionError(
            f"causality violation: boundary carry re-routed from "
            f"slot t={t} into a slot <= t under {mapname_ref[0]}"
        )

    return _bad


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def compile_matmul_program(
    mapping: MappingMatrix, u: int, p: int, expansion_key: str
) -> CompiledMatmulProgram:
    """Compile the (``T``, expansion, ``u``, ``p``) tuple to a program."""
    exp1 = expansion_key == "I"
    plan = plan_for(mapping, (1,) * 5, (u, u, u, p, p))
    lattice = plan.lattice

    # The structural read census (reads, causality checks, link traffic)
    # is a constant of the design; folding it here also performs the
    # per-site Π·d̄ >= 1 causality check.
    counters = SlotCounters()
    for displacement, mask in matmul_read_sites(u, p, exp1, lattice):
        counters.account_site(mapping, displacement, int(mask.sum()))

    pi = [int(x) for x in mapping.schedule]
    # Constant schedule displacement of each boundary re-route class.
    rr_ok = (pi[3] >= 1, pi[3] + pi[4] >= 1, 2 * pi[3] >= 1)

    writes_struct = 3 * plan.n_points
    flat = _np.flatnonzero
    slots = []
    for (start, end), t in zip(plan.slices, plan.slot_times):
        block = lattice[plan.order[start:end]]
        a = block[:, 0] - 1
        b = block[:, 1] - 1
        c = block[:, 2] - 1
        d = block[:, 3] - 1
        e = block[:, 4] - 1
        o = ((((a * u + b) * u + c) * p + d) * p + e)
        rec = {"t": int(t), "o": _i32(o)}

        sel = flat(e > 0)  # in-row carry from i2 - 1
        rec["cs"], rec["cq"] = _i32(sel), _i32(o[sel] - 1)
        sel = flat(e == p - 1)  # pending boundary re-routes land on i2 = p
        rec["ns"], rec["nq"] = _i32(sel), _i32(o[sel])

        if exp1:
            gathers = (
                (c > 0, o - p * p),                           # j3 - 1
                ((c == u - 1) & (d > 0) & (e < p - 1), o - p + 1),
                ((c == u - 1) & (e > 1), o - 2),              # C2, i2 - 2
            )
        else:
            gathers = (
                ((d > 0) & (e < p - 1), o - p + 1),           # δ̄₃ collapse
                (((d == p - 1) | (e == 0)) & (c > 0), o - p * p),
                ((d == p - 1) & (e > 1), o - 2),              # C2, i2 - 2
            )
        for name, (m, q) in zip(("g0", "g1", "g2"), gathers):
            sel = flat(m)
            rec[name + "s"], rec[name + "q"] = _i32(sel), _i32(q[sel])

        sel = flat(e <= p - 2)  # C keep: i2 + 1 <= p
        rec["ks"], rec["kq"] = _i32(sel), _i32(o[sel])
        writes_struct += len(sel)
        # C re-route (from i2 = p): in range iff i1 <= p - 1.
        sel = flat((e == p - 1) & (d <= p - 2))
        rec["r1s"], rec["r1t"] = _i32(sel), _i32(o[sel] + p)
        rec["q1s"] = _i32(flat((e == p - 1) & (d > p - 2)))

        sel = flat(e <= p - 3)  # C2 keep: i2 + 2 <= p
        rec["k2s"], rec["k2q"] = _i32(sel), _i32(o[sel])
        writes_struct += len(sel)
        # C2 re-route class A (from i2 = p-1): in range iff i1 <= p - 1.
        sel = flat((e == p - 2) & (d <= p - 2))
        rec["rAs"], rec["rAt"] = _i32(sel), _i32(o[sel] + p + 1)
        # C2 re-route class B (from i2 = p): in range iff i1 <= p - 2.
        sel = flat((e == p - 1) & (d <= p - 3))
        rec["rBs"], rec["rBt"] = _i32(sel), _i32(o[sel] + 2 * p)
        rec["q2s"] = _i32(flat(
            ((e == p - 2) & (d == p - 1)) | ((e == p - 1) & (d >= p - 2))
        ))
        slots.append(rec)

    program = CompiledMatmulProgram(
        u, p, expansion_key, slots, plan.slot_times, rr_ok,
        counters.reads, counters.causality_checks, writes_struct,
        counters.links,
    )
    program.busy = plan.busy_per_step()
    program.pe_busy = plan.pe_busy()
    program.first = plan.first
    program.last = plan.last
    program.n_points = plan.n_points
    return program


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------

def _gather(dst_len, sel_name, sel, src, q_name):
    """``v += <src>[q]`` statement, sliced only when the selection is a
    strict subset of the slot block."""
    if len(sel) == dst_len:
        return f"    v += {src}[{q_name}]"
    return f"    v[{sel_name}] += {src}[{q_name}]"


def _emit_matmul_source(program: CompiledMatmulProgram) -> str:
    """Emit the loop-free kernel: one straight-line block per time slot.

    The function closes over nothing; every index plan is a global of the
    ``exec`` environment (``o3``, ``cs3``, ... for slot 3).  Arguments are
    the raveled value arrays; returns ``(max_summands, reroute_writes,
    dropped)`` -- the only data-dependent observables.
    """
    rr1_ok, rrA_ok, rrB_ok = program.rr_ok
    L = [
        "def _kernel(B, S, C, D, N):",
        "    ms = 0",
        "    w = 0",
        "    dd = 0",
    ]
    for k, rec in enumerate(program.slots):
        n = len(rec["o"])
        L.append(f"    # slot t={rec['t']} ({n} points)")
        L.append(f"    v = B[o{k}]")
        if len(rec["cs"]):
            L.append(_gather(n, f"cs{k}", rec["cs"], "C", f"cq{k}"))
        if len(rec["ns"]):
            L.append(_gather(n, f"ns{k}", rec["ns"], "N", f"nq{k}"))
            L.append(f"    N[nq{k}] = 0")
        for g, src in (("g0", "S"), ("g1", "S"), ("g2", "D")):
            if len(rec[g + "s"]):
                L.append(_gather(n, f"{g}s{k}", rec[g + "s"], src, f"{g}q{k}"))
        L.append("    m = int(v.max())")
        L.append(f"    if m > 7: _ovf(o{k}, v)")
        L.append("    if m > ms: ms = m")
        L.append(f"    S[o{k}] = v & 1")

        if len(rec["ks"]) or len(rec["q1s"]) or len(rec["r1s"]):
            L.append("    b = (v >> 1) & 1")
            if len(rec["ks"]):
                src = "b" if len(rec["ks"]) == n else f"b[ks{k}]"
                L.append(f"    C[kq{k}] = {src}")
            if len(rec["q1s"]):
                L.append(f"    dd += int(b[q1s{k}].sum())")
            if len(rec["r1s"]):
                if rr1_ok:
                    L.append(f"    r = b[r1s{k}]")
                    L.append("    w += int(r.sum())")
                    L.append(f"    _add(N, r1t{k}, r)")
                else:
                    L.append(f"    if b[r1s{k}].any(): _bad({rec['t']})")

        has_rr2 = len(rec["rAs"]) or len(rec["rBs"])
        if len(rec["k2s"]) or len(rec["q2s"]) or has_rr2:
            L.append("    b = (v >> 2) & 1")
            if len(rec["k2s"]):
                src = "b" if len(rec["k2s"]) == n else f"b[k2s{k}]"
                L.append(f"    D[k2q{k}] = {src}")
            if len(rec["q2s"]):
                L.append(f"    dd += int(b[q2s{k}].sum())")
            for cls, ok in (("A", rrA_ok), ("B", rrB_ok)):
                if not len(rec[f"r{cls}s"]):
                    continue
                if ok:
                    L.append(f"    r = b[r{cls}s{k}]")
                    L.append("    w += int(r.sum())")
                    L.append(f"    _add(N, r{cls}t{k}, r)")
                else:
                    L.append(f"    if b[r{cls}s{k}].any(): _bad({rec['t']})")
    L.append("    return ms, w, dd")
    return "\n".join(L) + "\n"
