"""The ``compiled`` simulation backend.

Dispatches a :class:`~repro.machine.simulator.SpaceTimeSimulator` run to
a compiled per-design program:

* resolve the program for (design rows, kernel family, size, expansion)
  from the in-process program memo, and only on a miss compile it --
  a recompile reuses the memoized schedule plan
  (:func:`repro.compile.plan.plan_for`), so repeat simulations of a
  known design skip its census and conflict check either way;
* execute it against a fresh :class:`~repro.compile.plan.DenseValueStore`
  and assemble the :class:`~repro.machine.simulator.SimulationResult`
  from the utilization statistics of the program's plan, emitting
  metrics through the same
  :func:`~repro.machine.simulator.emit_machine_metrics` as the pointwise
  backend (bit-identical names and values).

Programs are never persisted: the artifact cache (``REPRO_CACHE_DIR``)
plays no part in a compiled run, so its metrics are the same whether or
not the cache is on.

A run without a kernel -- a raw ``compute`` callable, or operands past
the int64 lane gates -- never reaches this module: the simulator fires
it point by point on the pointwise interpreter.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.compile.model import ModelKernel, compile_model_program, value_program
from repro.compile.plan import DenseValueStore
from repro.compile.word import WordModelKernel, compile_word_program
from repro.machine.simulator import SimulationResult, emit_machine_metrics

__all__ = ["run_compiled", "clear_program_memo"]

#: A compiled program holds its design's census and statistics (the
#: shared value programs have their own memo); keep a small in-process
#: working set (a serve process sees a handful of designs).
_MEMO_CAPACITY = 8

_PROGRAMS: "OrderedDict[tuple, object]" = OrderedDict()


def clear_program_memo() -> None:
    """Drop every memoized compiled program and value program
    (tests/benchmarks force cold compiles with this)."""
    _PROGRAMS.clear()
    value_program.cache_clear()


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
        store = DenseValueStore(program.lowers, program.uppers)
        sim.store = store
        plan = program.plan
        if plan.n_points:
            counters = program.execute(kernel, store)
            store.reads += counters.reads
            store.writes += counters.writes
            store.causality_checks += counters.causality_checks
            if reg is not None:
                for label in sorted(counters.links):
                    reg.count(label, counters.links[label])
        result = SimulationResult(
            makespan=plan.last - plan.first + 1,
            first_time=plan.first,
            last_time=plan.last,
            computations=plan.n_points,
            processor_count=len(plan.pe_busy),
            busy_per_step=plan.busy_per_step,
            store_reads=store.reads,
            store_writes=store.writes,
            pe_busy=plan.pe_busy,
        )
    emit_machine_metrics(reg, result, store)
    return result


def run_compiled(sim, kernel) -> SimulationResult:
    """Execute ``sim`` under the ``compiled`` backend.

    ``kernel`` (:class:`ModelKernel` or :class:`WordModelKernel`) names
    the instance; its program comes from the in-process memo, compiled on
    a miss.  The result, store contents, and metrics are identical to the
    pointwise backend's.
    """
    mapping = sim.mapping
    if isinstance(kernel, ModelKernel):
        family, compile_fn = "model", compile_model_program
    elif isinstance(kernel, WordModelKernel):
        family, compile_fn = "word", compile_word_program
    else:
        raise TypeError(f"no compiled program for kernel {kernel!r}")
    program = _program_for(
        (family, mapping.rows, *kernel.key),
        lambda: compile_fn(mapping, *kernel.key),
    )
    return _run_program(sim, kernel, program)
