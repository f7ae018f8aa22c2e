"""Per-design schedule plans and the dense store the compiled programs use.

Everything a run would otherwise re-derive on every ``simulate`` call --
the box lattice, the batched ``Π j̄`` / ``S j̄`` transforms, the conflict
check, the time-sorted slot grouping, busy-per-step and per-PE busy
counts -- is a constant of ``(T, lowers, uppers)``.  :func:`plan_for`
builds that structure exactly once per design and memoizes it in-process
(an LRU keyed like the mapping engine's ``EvalCache``: by content, not
identity), so repeat simulations of the same design -- the serve tier's
bread and butter -- skip straight to value execution.

Two plan shapes exist:

* :class:`SchedulePlan`: dense arrays + slot slices, the substrate the
  design compilers turn into per-slot index plans;
* :class:`GenericPlan`: the point list, batched times / processors, and
  time-bucketed slots used by the generic per-point path, memoized only
  for plain box index sets (whose point enumeration is fully determined
  by the bounds).

Plans are read-only by convention: consumers receive *copies* of the
mutable per-run statistics (``busy_per_step``, ``pe_busy``) and must not
write into the shared arrays.

The machine-model checks of Definition 4.1 run here in batch form:
*conflicts* (condition 3) by uniqueness of ``(S j̄, Π j̄)`` over the
whole run (:func:`_check_conflicts`, at plan build time), *causality*
(condition 1) by ``Π d̄ >= 1`` per realized read displacement
(:meth:`SlotCounters.account_site`, at compile time).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as _np

from repro.machine.pe import ProcessorElement
from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet

__all__ = [
    "DenseValueStore",
    "SlotCounters",
    "SchedulePlan",
    "GenericPlan",
    "plan_for",
    "generic_plan_for",
    "clear_plan_memo",
]

#: In-process memo capacity (plans are O(points) memory; a handful of
#: designs is the realistic working set of a serve process).
_MEMO_CAPACITY = 32

_PLAN_MEMO: "OrderedDict[tuple, SchedulePlan]" = OrderedDict()
_GENERIC_MEMO: "OrderedDict[tuple, GenericPlan]" = OrderedDict()


def clear_plan_memo() -> None:
    """Drop every memoized plan (tests and benchmarks use this to force
    cold builds)."""
    _PLAN_MEMO.clear()
    _GENERIC_MEMO.clear()


def _memo_put(memo: OrderedDict, key, value) -> None:
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > _MEMO_CAPACITY:
        memo.popitem(last=False)


# ---------------------------------------------------------------------------
# Dense storage
# ---------------------------------------------------------------------------

class DenseValueStore:
    """Write-once space-time memory over dense lattice-indexed arrays.

    Drop-in for :class:`~repro.machine.simulator.ValueStore`: same
    ``get``/``put``/``add_pending``/``pop_pending``/``snapshot`` surface and
    the same ``reads``/``writes``/``causality_checks`` counters, but each
    variable is an ndarray indexed by (offset) lattice coordinates instead
    of a ``(var, point)`` dict.  Programs attach their arrays with
    :meth:`attach`; scalar accesses outside the box (or to variables the
    program never materialized) fall through to a small dict overlay so
    the store stays value-complete.
    """

    def __init__(
        self,
        mapping: MappingMatrix,
        lowers: Sequence[int],
        uppers: Sequence[int],
    ):
        self._mapping = mapping
        self.lowers = tuple(int(x) for x in lowers)
        self.uppers = tuple(int(x) for x in uppers)
        self.shape = tuple(
            max(0, hi - lo + 1) for lo, hi in zip(self.lowers, self.uppers)
        )
        self._arrays: dict[str, object] = {}
        self._masks: dict[str, object] = {}
        self._extra: dict[tuple[str, tuple[int, ...]], int] = {}
        self._current_time: int | None = None
        self._reader_point: tuple[int, ...] | None = None
        self._registry = None
        self.reads = 0
        self.writes = 0
        self.causality_checks = 0

    # -- program surface -----------------------------------------------------
    def attach(self, var: str, array, mask) -> None:
        """Register ``var``'s dense value array and boolean presence mask
        (broadcastable to the box shape)."""
        self._arrays[var] = array
        self._masks[var] = mask

    def _index(self, point: Sequence[int]) -> tuple[int, ...] | None:
        """Zero-based array index of ``point``, or ``None`` outside the box."""
        pt = tuple(int(x) for x in point)
        if len(pt) != len(self.lowers):
            return None
        idx = []
        for x, lo, hi in zip(pt, self.lowers, self.uppers):
            if not lo <= x <= hi:
                return None
            idx.append(x - lo)
        return tuple(idx)

    # -- ValueStore surface --------------------------------------------------
    def time_of(self, point: tuple[int, ...]) -> int:
        """``Π j̄`` (delegated; programs use the batched transform instead)."""
        return self._mapping.time_of(point)

    def processor_of(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """``S j̄`` (delegated)."""
        return self._mapping.processor_of(point)

    def _set_context(self, time, point) -> None:
        self._current_time = time
        self._reader_point = tuple(point) if point is not None else None

    def _lookup(self, var: str, point: Sequence[int]):
        key = (var, tuple(int(x) for x in point))
        if key in self._extra:
            return self._extra[key]
        array = self._arrays.get(var)
        if array is None:
            return None
        idx = self._index(point)
        if idx is None or not bool(self._masks[var][idx]):
            return None
        return int(array[idx])

    def get(
        self, var: str, point: Sequence[int], default: int | None = None
    ) -> int:
        """Read ``var`` produced at ``point`` (same contract as
        :meth:`ValueStore.get`, including counter and causality/link
        bookkeeping for clocked reads)."""
        self.reads += 1
        value = self._lookup(var, point)
        if value is None:
            if default is None:
                raise KeyError(
                    f"no value for {(var, tuple(point))} and no boundary default"
                )
            return default
        if self._current_time is not None:
            self.causality_checks += 1
            produced_at = self.time_of(tuple(point))
            if produced_at >= self._current_time:
                raise AssertionError(
                    f"causality violation: {(var, tuple(point))} produced at "
                    f"t={produced_at}, read at t={self._current_time}"
                )
        reg = self._registry
        if reg is not None and self._reader_point is not None:
            src = self.processor_of(tuple(point))
            dst = self.processor_of(self._reader_point)
            if src == dst:
                reg.count("machine.link.local")
            else:
                delta = ",".join(str(b - a) for a, b in zip(src, dst))
                reg.count(f"machine.link.{delta}")
        return value

    def put(self, var: str, point: Sequence[int], value: int) -> None:
        """Scalar write (single assignment enforced against both the dense
        arrays and the overlay)."""
        key = (var, tuple(int(x) for x in point))
        if self._lookup(var, point) is not None:
            raise AssertionError(f"double write to {key}")
        self._extra[key] = int(value)
        self.writes += 1

    def add_pending(self, var: str, point: Sequence[int], value: int) -> None:
        """Accumulate into a pending overlay slot."""
        key = (var, tuple(int(x) for x in point))
        self._extra[key] = self._extra.get(key, 0) + int(value)
        self.writes += 1

    def pop_pending(self, var: str, point: Sequence[int]) -> int:
        """Consume a pending overlay slot (0 if nothing was routed there)."""
        return self._extra.pop((var, tuple(int(x) for x in point)), 0)

    def snapshot(self) -> dict[tuple[str, tuple[int, ...]], int]:
        """The full ``(var, point) -> value`` contents, as the pointwise
        store would hold them.  O(#values): intended for verification on
        moderate instances, not for the hot path."""
        out: dict[tuple[str, tuple[int, ...]], int] = {}
        for var, array in self._arrays.items():
            mask = self._masks[var]
            for idx in _np.argwhere(_np.broadcast_to(mask, self.shape)):
                pt = tuple(int(x + lo) for x, lo in zip(idx, self.lowers))
                out[(var, pt)] = int(array[tuple(idx)])
        out.update(self._extra)
        return out


@dataclass
class SlotCounters:
    """Aggregate store/link bookkeeping a program hands back to the runner."""

    reads: int = 0
    writes: int = 0
    causality_checks: int = 0
    #: obs counter label -> increment (``machine.link.*``)
    links: dict[str, int] = field(default_factory=dict)

    def account_site(
        self,
        mapping: MappingMatrix,
        displacement: Sequence[int],
        reads_n: int,
        hits_n: int | None = None,
    ) -> None:
        """Fold one uniform read site into the totals.

        A *site* is a ``store.get`` call site whose producer is at a fixed
        displacement ``d̄`` from the reader; ``reads_n`` of them execute and
        ``hits_n`` find a produced value (the rest return the boundary
        default).  Performs the vectorized causality check -- every realized
        read at the site is legal iff ``Π d̄ >= 1`` -- and attributes link
        traffic ``S d̄`` exactly as the pointwise store does per access.
        """
        hits = reads_n if hits_n is None else hits_n
        self.reads += int(reads_n)
        if hits <= 0:
            return
        self.causality_checks += int(hits)
        step = mapping.time_of(displacement)
        if step < 1:
            raise AssertionError(
                f"causality violation: reads along displacement "
                f"{tuple(displacement)} have schedule step Π·d = {step} < 1 "
                f"under {mapping.name}"
            )
        delta = mapping.processor_of(displacement)
        if any(delta):
            label = "machine.link." + ",".join(str(x) for x in delta)
        else:
            label = "machine.link.local"
        self.links[label] = self.links.get(label, 0) + int(hits)


# ---------------------------------------------------------------------------
# Array helpers
# ---------------------------------------------------------------------------

def _box_lattice(lowers, uppers):
    """All lattice points of the box as one ``(N, n)`` int64 block, in
    lexicographic order (the order ``IndexSet.points`` enumerates)."""
    axes = [_np.arange(lo, hi + 1, dtype=_np.int64) for lo, hi in zip(lowers, uppers)]
    if any(len(ax) == 0 for ax in axes):
        return _np.zeros((0, len(axes)), dtype=_np.int64)
    grids = _np.meshgrid(*axes, indexing="ij")
    return _np.stack([g.reshape(-1) for g in grids], axis=1)


def _slot_slices(sorted_times):
    """``(start, end)`` index pairs of the equal-time runs."""
    cuts = _np.flatnonzero(_np.diff(sorted_times)) + 1
    starts = _np.concatenate([[0], cuts])
    ends = _np.concatenate([cuts, [len(sorted_times)]])
    return list(zip(starts.tolist(), ends.tolist()))


def _encode_columns(columns):
    """Mixed-radix encoding of integer columns into one int64 key array."""
    key = None
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        shifted = col - lo
        key = shifted if key is None else key * span + shifted
    return key


def _check_conflicts(lattice, times, procs):
    """Condition 3, vectorized: ``(S j̄, Π j̄)`` must be unique across the
    run.  Raises the same ``ValueError`` the pointwise PE would."""
    columns = [procs[:, k] for k in range(procs.shape[1])] + [times]
    key = _encode_columns(columns)
    order = _np.argsort(key, kind="stable")
    sorted_key = key[order]
    dup = _np.flatnonzero(sorted_key[1:] == sorted_key[:-1])
    if len(dup) == 0:
        return
    # Report the earliest-scheduled collision, pointwise-style.
    pairs = order[dup], order[dup + 1]
    worst = int(_np.argmin(times[pairs[0]]))
    i, j = int(pairs[0][worst]), int(pairs[1][worst])
    pos = tuple(int(x) for x in procs[i])
    raise ValueError(
        f"conflict on PE {pos} at t={int(times[i])}: "
        f"{tuple(int(x) for x in lattice[i])} vs "
        f"{tuple(int(x) for x in lattice[j])}"
    )


def _group_counts(encoded, rows):
    """``{tuple(row): multiplicity}`` for the distinct rows of an encoded
    column set (used for per-PE busy counts)."""
    uniq, first, counts = _np.unique(
        encoded, return_index=True, return_counts=True
    )
    out = {}
    for idx, n in zip(first.tolist(), counts.tolist()):
        out[tuple(int(x) for x in rows[idx])] = int(n)
    return out


# ---------------------------------------------------------------------------
# Schedule plans
# ---------------------------------------------------------------------------

class SchedulePlan:
    """The dense run-invariant schedule structure of one design + box."""

    __slots__ = (
        "lattice", "times", "procs", "order", "slices", "sorted_times",
        "slot_times", "first", "last", "n_points", "_busy", "_pe_busy",
    )

    def __init__(self, lattice, times, procs, order, slices, sorted_times,
                 first, last, busy, pe_busy):
        self.lattice = lattice
        self.times = times
        self.procs = procs
        self.order = order
        self.slices = slices
        self.sorted_times = sorted_times
        self.slot_times = [int(sorted_times[s]) for s, _ in slices]
        self.first = first
        self.last = last
        self.n_points = len(lattice)
        self._busy = busy
        self._pe_busy = pe_busy

    def busy_per_step(self) -> dict[int, int]:
        """Per-time-step busy-PE counts (a fresh dict per caller)."""
        return dict(self._busy)

    def pe_busy(self) -> dict[tuple[int, ...], int]:
        """Per-PE busy-beat counts (a fresh dict per caller)."""
        return dict(self._pe_busy)


def _build_plan(
    mapping: MappingMatrix,
    lowers: Sequence[int],
    uppers: Sequence[int],
) -> SchedulePlan:
    lattice = _box_lattice(lowers, uppers)
    times = mapping.times_of(lattice)
    procs = mapping.processors_of(lattice)
    if len(lattice):
        _check_conflicts(lattice, times, procs)
        first = int(times.min())
        last = int(times.max())
        order = _np.argsort(times, kind="stable")
        sorted_times = times[order]
        slices = _slot_slices(sorted_times)
        step_values, step_counts = _np.unique(times, return_counts=True)
        busy = {
            int(t): int(n)
            for t, n in zip(step_values.tolist(), step_counts.tolist())
        }
        pe_busy = _group_counts(
            _encode_columns([procs[:, k] for k in range(procs.shape[1])]),
            procs,
        )
    else:
        first, last = 0, -1
        order = _np.zeros(0, dtype=_np.int64)
        sorted_times = times
        slices = []
        busy = {}
        pe_busy = {}
    return SchedulePlan(
        lattice, times, procs, order, slices, sorted_times,
        first, last, busy, pe_busy,
    )


def plan_for(
    mapping: MappingMatrix,
    lowers: Sequence[int],
    uppers: Sequence[int],
) -> SchedulePlan:
    """The (memoized) :class:`SchedulePlan` of ``mapping`` over the box.

    Keyed by the mapping's *rows* (content, like ``EvalCache``), so two
    equal designs share one plan regardless of object identity or name.
    Conflicting designs raise the usual ``ValueError`` and are never
    cached, so the error re-raises on every attempt.
    """
    key = (mapping.rows, tuple(lowers), tuple(uppers))
    plan = _PLAN_MEMO.get(key)
    if plan is not None:
        _PLAN_MEMO.move_to_end(key)
        return plan
    plan = _build_plan(mapping, lowers, uppers)
    _memo_put(_PLAN_MEMO, key, plan)
    return plan


def _pes_materializer(mapping, lowers, uppers):
    """Deferred construction of the ``{coords: ProcessorElement}`` map,
    run on first ``sim.pes`` access (the compiled hot path never needs the
    O(points) firing records).  The plan's conflict check already ran, so
    firings are bulk-inserted."""

    def build() -> dict[tuple[int, ...], ProcessorElement]:
        plan = plan_for(mapping, lowers, uppers)
        pes: dict[tuple[int, ...], ProcessorElement] = {}
        for pos_row, t, pt in zip(
            plan.procs.tolist(), plan.times.tolist(), plan.lattice.tolist()
        ):
            pos = tuple(pos_row)
            pe = pes.get(pos)
            if pe is None:
                pe = pes[pos] = ProcessorElement(pos)
            pe.firings[int(t)] = tuple(pt)
        return pes

    return build


class GenericPlan:
    """The plan consumed by the generic per-point path."""

    __slots__ = ("points", "times", "procs", "slots")

    def __init__(self, points, times, procs, slots):
        self.points = points  # list[tuple[int, ...]]
        self.times = times  # list[int], aligned with points
        self.procs = procs  # list[tuple[int, ...]], aligned with points
        #: ``[(t, [points...]), ...]`` in ascending schedule time
        self.slots = slots


def _build_generic_plan(mapping: MappingMatrix, points) -> GenericPlan:
    points = list(points)
    tlist = mapping.times_of(points).tolist()
    procs = [tuple(row) for row in mapping.processors_of(points).tolist()]
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for point, t in zip(points, tlist):
        buckets.setdefault(t, []).append(point)
    slots = [(t, buckets[t]) for t in sorted(buckets)]
    return GenericPlan(points, tlist, procs, slots)


def generic_plan_for(mapping: MappingMatrix, index_set, binding) -> GenericPlan:
    """The (memoized) :class:`GenericPlan` for an algorithm instance.

    Only plain rectangular :class:`~repro.structures.indexset.IndexSet`
    instances are memoized -- their point enumeration is a pure function
    of the concrete bounds, which become the memo key.  Any other index
    set (or unbound parameters) builds a fresh plan every call.
    """
    key = None
    if type(index_set) is IndexSet:
        try:
            bounds = tuple(tuple(b) for b in index_set.bounds(binding))
        except KeyError:
            bounds = None
        if bounds is not None:
            key = (mapping.rows, bounds)
            plan = _GENERIC_MEMO.get(key)
            if plan is not None:
                _GENERIC_MEMO.move_to_end(key)
                return plan
    plan = _build_generic_plan(mapping, index_set.points(binding))
    if key is not None:
        _memo_put(_GENERIC_MEMO, key, plan)
    return plan
