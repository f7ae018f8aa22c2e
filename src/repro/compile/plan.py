"""Per-design schedule plans and the dense store the compiled programs use.

Everything a run would otherwise re-derive on every ``simulate`` call --
the conflict check, busy-per-step and per-PE busy counts -- is a
constant of ``(T, lowers, uppers)``.  :func:`plan_for` builds that
structure exactly once per design and memoizes it in-process (an LRU
keyed like the mapping engine's ``EvalCache``: by content, not
identity), so repeat simulations of the same design -- the serve tier's
bread and butter -- skip straight to value execution.

A :class:`SchedulePlan` is counted from ``T`` and the box, never from
its points: the image census
(:func:`~repro.structures.indexset.image_census`) of ``Π`` gives the
busy PEs of every beat, that of ``S`` the busy beats of every PE, so a
plan holds O(steps + PEs).  Only a conflicting design's error lists the
box.

Plans are read-only: their per-run statistics (``busy_per_step``,
``pe_busy``) are ``MappingProxyType`` views, which every run's result
shares and no caller can change.

The machine-model checks of Definition 4.1 run here in batch form:
*conflicts* (condition 3) by the search's exact lattice test,
:func:`~repro.mapping.conflicts.find_conflicts` (at plan build time),
*causality* (condition 1) by ``Π d̄ >= 1`` per realized read displacement
(:meth:`SlotCounters.account_site`, at compile time).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Sequence

import numpy as _np

from repro.mapping.conflicts import find_conflicts
from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet, box_lattice, image_census

__all__ = [
    "DenseValueStore",
    "SlotCounters",
    "SchedulePlan",
    "plan_for",
    "clear_plan_memo",
]

#: In-process memo capacity (plans are O(steps + PEs) memory; a handful
#: of designs is the realistic working set of a serve process).
_MEMO_CAPACITY = 32

_PLAN_MEMO: "OrderedDict[tuple, SchedulePlan]" = OrderedDict()


def clear_plan_memo() -> None:
    """Drop every memoized plan (tests and benchmarks use this to force
    cold builds)."""
    _PLAN_MEMO.clear()


# ---------------------------------------------------------------------------
# Dense storage
# ---------------------------------------------------------------------------

class DenseValueStore:
    """The value store of a compiled run: each variable a dense array over
    the lattice box plus a boolean presence mask.

    The program attaches its arrays (:meth:`attach`) once it has run;
    from then on ``get`` and ``snapshot`` answer as the pointwise
    :class:`~repro.machine.simulator.ValueStore` would after the same run,
    and ``reads``/``writes``/``causality_checks`` hold the run's counters.
    """

    def __init__(self, lowers: Sequence[int], uppers: Sequence[int]):
        self.lowers = tuple(int(x) for x in lowers)
        self.uppers = tuple(int(x) for x in uppers)
        self.shape = tuple(
            max(0, hi - lo + 1) for lo, hi in zip(self.lowers, self.uppers)
        )
        self._arrays: dict[str, object] = {}
        self._masks: dict[str, object] = {}
        self.reads = 0
        self.writes = 0
        self.causality_checks = 0

    def attach(self, var: str, array, mask) -> None:
        """Register ``var``'s dense value array and boolean presence mask
        (broadcastable to the box shape)."""
        self._arrays[var] = array
        self._masks[var] = mask

    def get(
        self, var: str, point: Sequence[int], default: int | None = None
    ) -> int:
        """Read ``var`` produced at ``point`` (``default`` where the run
        produced none, else ``KeyError``)."""
        self.reads += 1
        array = self._arrays.get(var)
        idx = tuple(int(x) - lo for x, lo in zip(point, self.lowers))
        if (
            array is None
            or len(point) != len(self.lowers)
            or not all(0 <= i < n for i, n in zip(idx, self.shape))
            or not self._masks[var][idx]
        ):
            if default is None:
                raise KeyError(
                    f"no value for {(var, tuple(point))} and no boundary default"
                )
            return default
        return int(array[idx])

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
    ) -> None:
        """Fold one uniform read site into the totals.

        A *site* is a ``store.get`` call site whose producer is at a fixed
        displacement ``d̄`` from the reader; ``reads_n`` of them execute,
        each finding a produced value.  Performs the vectorized causality
        check -- every realized read at the site is legal iff ``Π d̄ >= 1``
        -- and attributes link traffic ``S d̄`` exactly as the pointwise
        store does per access.
        """
        self.reads += int(reads_n)
        if reads_n <= 0:
            return
        self.causality_checks += int(reads_n)
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
        self.links[label] = self.links.get(label, 0) + int(reads_n)


# ---------------------------------------------------------------------------
# Schedule plans
# ---------------------------------------------------------------------------

class SchedulePlan:
    """The run-invariant schedule statistics of one design + box:
    ``busy_per_step`` maps each beat (ascending) to its busy-PE count,
    ``pe_busy`` each PE (lexicographic) to its busy-beat count.  Both are
    read-only views, so every run's result shares them with the memoized
    plan without a copy."""

    __slots__ = ("first", "last", "n_points", "busy_per_step", "pe_busy")

    def __init__(self, busy, pe_busy):
        self.busy_per_step = MappingProxyType(busy)
        self.pe_busy = MappingProxyType(pe_busy)
        self.n_points = sum(busy.values())
        beats = list(busy)
        self.first, self.last = (beats[0], beats[-1]) if beats else (0, -1)


def _build_plan(
    mapping: MappingMatrix,
    lowers: Sequence[int],
    uppers: Sequence[int],
) -> SchedulePlan:
    bounds = list(zip(lowers, uppers))
    times, per_step = image_census(mapping.rows[-1:], bounds)
    if len(times) and find_conflicts(
        mapping, IndexSet(lowers, uppers), {}, limit=1
    ):
        raise _first_conflict(mapping, bounds)
    pes, per_pe = image_census(mapping.rows[:-1], bounds)
    return SchedulePlan(
        dict(zip(times[:, 0].tolist(), per_step.tolist())),
        dict(zip(map(tuple, pes.tolist()), per_pe.tolist())),
    )


def _first_conflict(mapping: MappingMatrix, bounds) -> ValueError:
    """The conflict the pointwise machine raises on: it fires the points
    in ``Π j̄`` order, C order within a beat, and stops at the first point
    whose ``(S j̄, Π j̄)`` slot is taken, naming the slot's first point."""
    lattice = box_lattice(bounds)
    fired = lattice[_np.argsort(mapping.times_of(lattice), kind="stable")]
    times = mapping.times_of(fired)
    slots = _np.column_stack([mapping.processors_of(fired), times])
    _, first, inverse = _np.unique(
        slots, axis=0, return_index=True, return_inverse=True
    )
    owner = first[inverse.reshape(-1)]
    i = int(_np.flatnonzero(owner != _np.arange(len(fired)))[0])
    pos = tuple(int(x) for x in slots[i, :-1])
    return ValueError(
        f"conflict on PE {pos} at t={int(times[i])}: "
        f"{tuple(fired[owner[i]].tolist())} vs {tuple(fired[i].tolist())}"
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
    plan = _PLAN_MEMO[key] = _build_plan(mapping, lowers, uppers)
    while len(_PLAN_MEMO) > _MEMO_CAPACITY:
        _PLAN_MEMO.popitem(last=False)
    return plan

