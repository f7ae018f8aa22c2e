"""The ``compiled`` simulation backend.

Dispatches a :class:`~repro.machine.simulator.SpaceTimeSimulator` run to
a compiled per-design program:

* resolve the program for (design rows, kernel family, size, expansion)
  from the in-process program memo, and only on a miss compile it --
  a recompile reuses the memoized schedule plan
  (:func:`repro.compile.plan.plan_for`), so repeat simulations of a
  known design skip the lattice/argsort work either way;
* execute it against a fresh :class:`~repro.compile.plan.DenseValueStore`
  and assemble the :class:`~repro.machine.simulator.SimulationResult`
  from the program's precomputed utilization statistics, emitting
  metrics through the same
  :func:`~repro.machine.simulator.emit_machine_metrics` as the pointwise
  backend (bit-identical names and values).

Programs are never persisted: the artifact cache (``REPRO_CACHE_DIR``)
plays no part in a compiled run, so its metrics are the same whether or
not the cache is on.

Runs without a recognized kernel (generic ``compute`` callables such as
the model machines, or operands past the int64 lane gates) take the
generic per-point path :func:`_run_generic` -- every caller keeps
working.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro import obs
from repro.compile.matmul import MatmulSlotKernel, compile_matmul_program
from repro.compile.plan import (
    DenseValueStore,
    _pes_materializer,
    generic_plan_for,
)
from repro.compile.word import WordMatmulSlotKernel, compile_word_program
from repro.machine.pe import ProcessorElement
from repro.machine.simulator import (
    SimulationResult,
    ValueStore,
    emit_machine_metrics,
)

__all__ = ["run_compiled", "clear_program_memo"]

#: Compiled programs hold O(points) int32 index plans; keep a small
#: in-process working set (a serve process sees a handful of designs).
_MEMO_CAPACITY = 8

_PROGRAMS: "OrderedDict[tuple, object]" = OrderedDict()


def clear_program_memo() -> None:
    """Drop every memoized compiled program (tests/benchmarks force cold
    compiles with this)."""
    _PROGRAMS.clear()


def _program_for(memo_key, compile_fn):
    """The memoized program for ``memo_key``, compiled on a miss."""
    program = _PROGRAMS.get(memo_key)
    if program is not None:
        _PROGRAMS.move_to_end(memo_key)
        return program
    program = _PROGRAMS[memo_key] = compile_fn()
    while len(_PROGRAMS) > _MEMO_CAPACITY:
        _PROGRAMS.popitem(last=False)
    return program


def _run_program(sim, kernel, program) -> SimulationResult:
    reg = obs.get_registry()
    mapping = sim.mapping
    with obs.span(
        "machine.simulate", mapping=mapping.name, backend="compiled"
    ):
        store = DenseValueStore(mapping, program.lowers, program.uppers)
        store._registry = reg
        sim.store = store
        busy: dict[int, int] = {}
        pe_busy: dict[tuple[int, ...], int] = {}
        first, last = 0, -1
        if program.n_points:
            counters = program.execute(kernel, store)
            store.reads += counters.reads
            store.writes += counters.writes
            store.causality_checks += counters.causality_checks
            if reg is not None:
                for label in sorted(counters.links):
                    reg.count(label, counters.links[label])
            busy = dict(program.busy)
            pe_busy = dict(program.pe_busy)
            first, last = program.first, program.last
            sim._pes_builder = _pes_materializer(
                mapping, program.lowers, program.uppers
            )
        result = SimulationResult(
            makespan=last - first + 1,
            first_time=first,
            last_time=last,
            computations=program.n_points,
            processor_count=len(pe_busy),
            busy_per_step=busy,
            store_reads=store.reads,
            store_writes=store.writes,
            pe_busy=pe_busy,
        )
    emit_machine_metrics(reg, result, store)
    return result


def _run_generic(sim, compute: Callable) -> SimulationResult:
    """The generic per-point path: batched transforms + slot-ordered
    per-point interpretation against the dict-backed :class:`ValueStore`.

    The batched times/processors and the slot bucketing are constants of
    (mapping, index-set bounds); they come from the memoized
    :func:`repro.compile.plan.generic_plan_for` so repeat runs of the same
    design skip straight to firing.
    """
    reg = obs.get_registry()
    store: ValueStore = sim.store
    store._registry = reg

    with obs.span(
        "machine.simulate", mapping=sim.mapping.name, backend="compiled"
    ):
        plan = generic_plan_for(
            sim.mapping, sim.algorithm.index_set, sim.binding
        )
        points = plan.points
        tlist = plan.times
        store._time_cache.update(zip(points, tlist))
        store._proc_cache.update(zip(points, plan.procs))

        pes = sim.pes
        busy: dict[int, int] = {}
        for t, slot_points in plan.slots:
            for point in slot_points:
                pos = store.processor_of(point)
                pe = pes.get(pos)
                if pe is None:
                    pe = pes[pos] = ProcessorElement(pos)
                pe.fire(t, point)
                busy[t] = busy.get(t, 0) + 1
                store._set_context(t, point)
                compute(point, store)
        store._set_context(None, None)  # post-run reads: off the clock
        result = SimulationResult(
            makespan=(max(tlist) - min(tlist) + 1) if tlist else 0,
            first_time=min(tlist) if tlist else 0,
            last_time=max(tlist) if tlist else -1,
            computations=len(points),
            processor_count=len(pes),
            busy_per_step=busy,
            store_reads=store.reads,
            store_writes=store.writes,
            pe_busy={pos: pe.busy_cycles for pos, pe in pes.items()},
        )
    emit_machine_metrics(reg, result, store)
    return result


def run_compiled(sim, compute: Callable, kernel=None) -> SimulationResult:
    """Execute ``sim`` under the ``compiled`` backend.

    Kernels the compiler recognizes (:class:`MatmulSlotKernel`,
    :class:`WordMatmulSlotKernel`) run through a compiled per-design
    program (memoized in-process); anything else -- ``kernel=None``
    or an unknown kernel -- runs ``compute`` through the generic per-point
    path.  The result, store contents, and metrics are identical to the
    pointwise backend's either way.
    """
    mapping = sim.mapping
    if isinstance(kernel, MatmulSlotKernel):
        expkey = kernel.expansion_key
        u, p = kernel.u, kernel.p
        program = _program_for(
            ("matmul", mapping.rows, u, p, expkey),
            lambda: compile_matmul_program(mapping, u, p, expkey),
        )
        return _run_program(sim, kernel, program)
    if isinstance(kernel, WordMatmulSlotKernel):
        u = kernel.u
        program = _program_for(
            ("word", mapping.rows, u),
            lambda: compile_word_program(mapping, u),
        )
        return _run_program(sim, kernel, program)
    return _run_generic(sim, compute)
