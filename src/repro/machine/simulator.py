"""The space-time executor.

Runs an algorithm's computations in linear-schedule order on the PE grid a
mapping induces, enforcing the machine model of Definition 4.1 at run time:

* *conflicts*: two distinct index points landing on one PE in one time slot
  abort the simulation (condition 3, checked dynamically);
* *causality*: every value read must have been produced at a strictly
  earlier time (condition 1, checked per access);
* *utilization*: per-PE busy counts and the makespan are recorded, so
  condition 5's "some processor busy at every beat" is measurable.

The executor is value-generic: callers supply a ``compute(point, store)``
function; :class:`ValueStore` is the communication fabric (a write-once
space-time memory with causality checking).

Two execution backends share this machine model (see ``docs/SIMULATION.md``):

* ``"pointwise"`` -- the reference interpreter: one index point at a time
  through a dict-backed store, with per-point memoized ``Π j̄`` / ``S j̄``;
* ``"compiled"`` -- the design compiler of :mod:`repro.compile`: the
  run-invariant structure (schedule tables, slot grouping, gather/scatter
  index plans) is compiled once per design into generated, loop-free NumPy
  source (memoized in-process and persisted in the artifact cache under a
  ``kernel`` key), so repeat simulations of a known design skip straight
  to value execution.  Generic ``compute`` callables run through its
  batched per-point path.  See ``docs/COMPILE.md``.

Both backends produce identical :class:`SimulationResult` values, store
contents, and observability metrics; the default is selected by
:func:`default_backend` (the ``REPRO_SIM_BACKEND`` environment variable,
``"pointwise"`` otherwise).

When an ambient :mod:`repro.obs` registry is installed, each run emits a
``machine.simulate`` span plus counters/gauges: store read/write and
causality-check totals, per-PE busy beats (``machine.pe_busy.<coords>``),
makespan, processor count, and link traffic per space displacement
(``machine.link.<dx,dy>``, with ``machine.link.local`` for in-PE reuse) --
the displacement a datum travels between producing and consuming PE, which
condition 2 bounds by the interconnection primitives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.machine.pe import ProcessorElement
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding

__all__ = [
    "BACKENDS",
    "default_backend",
    "ValueStore",
    "SimulationResult",
    "SpaceTimeSimulator",
]

#: The recognized execution backends.
BACKENDS = ("pointwise", "compiled")


def default_backend() -> str:
    """The process-wide default backend.

    Honors ``REPRO_SIM_BACKEND`` (``pointwise`` | ``compiled``) so fuzz
    and CI jobs can flip every simulator in one place; falls back to
    ``"pointwise"``.
    """
    backend = os.environ.get("REPRO_SIM_BACKEND", "pointwise")
    if backend not in BACKENDS:
        raise ValueError(
            f"REPRO_SIM_BACKEND={backend!r} is not one of {BACKENDS}"
        )
    return backend


def resolve_backend(backend: str | None) -> str:
    """Validate an explicit backend choice (``None`` -> the default)."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    return backend


class ValueStore:
    """Write-once space-time memory with causality checking.

    Schedule times and processor coordinates of producer/consumer points
    are memoized per point: every causality check and both endpoints of
    every link-traffic attribution hit the cache instead of re-running the
    ``Π j̄`` / ``S j̄`` dot products.
    """

    def __init__(self, mapping: MappingMatrix):
        self._mapping = mapping
        self._values: dict[tuple[str, tuple[int, ...]], int] = {}
        self._current_time: int | None = None
        self._reader_point: tuple[int, ...] | None = None
        self._registry = None  # ambient obs registry, set by the simulator
        self._time_cache: dict[tuple[int, ...], int] = {}
        self._proc_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.reads = 0
        self.writes = 0
        self.causality_checks = 0

    # -- memoized space-time transforms ------------------------------------
    def time_of(self, point: tuple[int, ...]) -> int:
        """Memoized ``Π j̄``."""
        t = self._time_cache.get(point)
        if t is None:
            t = self._time_cache[point] = self._mapping.time_of(point)
        return t

    def processor_of(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """Memoized ``S j̄``."""
        pos = self._proc_cache.get(point)
        if pos is None:
            pos = self._proc_cache[point] = self._mapping.processor_of(point)
        return pos

    def _set_time(self, time: int | None) -> None:
        self._current_time = time

    def _set_context(self, time: int | None, point: Sequence[int] | None) -> None:
        """Clock + reading index point (for link-traffic attribution)."""
        self._current_time = time
        self._reader_point = tuple(point) if point is not None else None

    def get(
        self,
        var: str,
        point: Sequence[int],
        default: int | None = None,
    ) -> int:
        """Read ``var`` produced at ``point``; ``default`` covers boundary
        inputs.  Raises on a causality violation (producer not earlier)."""
        key = (var, tuple(point))
        self.reads += 1
        if key not in self._values:
            if default is None:
                raise KeyError(f"no value for {key} and no boundary default")
            return default
        if self._current_time is not None:
            self.causality_checks += 1
            produced_at = self.time_of(key[1])
            if produced_at >= self._current_time:
                raise AssertionError(
                    f"causality violation: {key} produced at t={produced_at}, "
                    f"read at t={self._current_time}"
                )
        reg = self._registry
        if reg is not None and self._reader_point is not None:
            src = self.processor_of(key[1])
            dst = self.processor_of(self._reader_point)
            if src == dst:
                reg.count("machine.link.local")
            else:
                delta = ",".join(str(b - a) for a, b in zip(src, dst))
                reg.count(f"machine.link.{delta}")
        return self._values[key]

    def put(self, var: str, point: Sequence[int], value: int) -> None:
        """Write ``var`` at ``point`` (single assignment enforced)."""
        key = (var, tuple(point))
        if key in self._values:
            raise AssertionError(f"double write to {key}")
        self._values[key] = value
        self.writes += 1

    def add_pending(self, var: str, point: Sequence[int], value: int) -> None:
        """Accumulate into a pending slot (used for re-routed carries, which
        may gather several bits before their consumer fires)."""
        key = (var, tuple(point))
        self._values[key] = self._values.get(key, 0) + value
        self.writes += 1

    def pop_pending(self, var: str, point: Sequence[int]) -> int:
        """Consume a pending slot (0 if nothing was routed there)."""
        return self._values.pop((var, tuple(point)), 0)

    def snapshot(self) -> dict[tuple[str, tuple[int, ...]], int]:
        """The full ``(var, point) -> value`` store contents (copied)."""
        return dict(self._values)


@dataclass
class SimulationResult:
    """Timing/utilization outcome of one space-time execution."""

    makespan: int
    first_time: int
    last_time: int
    computations: int
    processor_count: int
    #: per-time-step count of busy PEs
    busy_per_step: dict[int, int] = field(default_factory=dict)
    store_reads: int = 0
    store_writes: int = 0
    #: per-PE busy-beat counts, keyed by processor coordinates
    pe_busy: dict[tuple[int, ...], int] = field(default_factory=dict)

    @property
    def always_busy(self) -> bool:
        """Condition 5's intent: at least one PE busy at every beat."""
        return all(
            self.busy_per_step.get(t, 0) > 0
            for t in range(self.first_time, self.last_time + 1)
        )

    @property
    def mean_utilization(self) -> float:
        """Average busy-PE fraction over the makespan."""
        if not self.makespan or not self.processor_count:
            return 0.0
        total_busy = sum(self.busy_per_step.values())
        return total_busy / (self.makespan * self.processor_count)

    def pe_utilization(self) -> dict[tuple[int, ...], float]:
        """Per-PE busy fraction of the makespan."""
        if not self.makespan:
            return {pos: 0.0 for pos in self.pe_busy}
        return {pos: n / self.makespan for pos, n in self.pe_busy.items()}


def emit_machine_metrics(reg, result: SimulationResult, store) -> None:
    """Emit the run's ``machine.*`` counters/gauges to ``reg``.

    Shared by both backends so the metric names, order, and values are
    identical whichever engine produced ``result``.  Emitted for *every*
    run -- including empty index sets -- so downstream consumers always
    see one consistent metrics shape.
    """
    if reg is None:
        return
    reg.count("machine.computations", result.computations)
    reg.count("machine.store_reads", store.reads)
    reg.count("machine.store_writes", store.writes)
    reg.count("machine.causality_checks", store.causality_checks)
    reg.gauge("machine.makespan", result.makespan)
    reg.gauge("machine.processor_count", result.processor_count)
    reg.gauge("machine.mean_utilization", result.mean_utilization)
    reg.gauge("machine.always_busy", int(result.always_busy))
    for pos, n in result.pe_busy.items():
        label = ",".join(str(x) for x in pos)
        reg.gauge(f"machine.pe_busy.{label}", n)
    if reg.sinks and result.busy_per_step:
        # Busy-PE count per beat as a bus series: the Chrome exporter
        # turns it into a utilization counter track (beat timebase).
        reg.emit_series(
            "machine.busy_pes",
            sorted(result.busy_per_step.items()),
        )


class SpaceTimeSimulator:
    """Execute an algorithm instance under a mapping.

    ``backend`` selects the execution engine (``"pointwise"`` |
    ``"compiled"``); ``None`` defers to :func:`default_backend`.
    """

    def __init__(
        self,
        mapping: MappingMatrix,
        algorithm: Algorithm,
        binding: ParamBinding,
        backend: str | None = None,
    ):
        self.mapping = mapping
        self.algorithm = algorithm
        self.binding = dict(binding)
        self.backend = resolve_backend(backend)
        self.store = ValueStore(mapping)
        self._pes: dict[tuple[int, ...], ProcessorElement] = {}
        self._pes_builder: Callable[[], dict] | None = None

    @property
    def pes(self) -> dict[tuple[int, ...], ProcessorElement]:
        """The PE map, keyed by processor coordinates.

        The compiled backend derives utilization statistics from arrays
        and only materializes the per-PE firing records on first access
        (they are O(points) Python objects the fast path never needs).
        """
        if self._pes_builder is not None:
            builder, self._pes_builder = self._pes_builder, None
            self._pes = builder()
        return self._pes

    def run(
        self,
        compute: Callable[[tuple[int, ...], ValueStore], None],
        kernel=None,
    ) -> SimulationResult:
        """Fire every index point in schedule order.

        ``compute`` receives the index point and the shared store (a
        :class:`ValueStore`; under the compiled backend the store the
        simulator ends up holding may be the dense
        :class:`~repro.compile.plan.DenseValueStore` -- same interface);
        it should read its inputs (with boundary defaults), compute, and
        write its outputs.

        ``kernel``, when given, holds the run's operands for a compiled
        program semantically equivalent to ``compute``
        (:class:`~repro.compile.matmul.MatmulSlotKernel`,
        :class:`~repro.compile.word.WordMatmulSlotKernel`); the compiled
        backend runs that program instead of calling ``compute`` per
        point.  The pointwise backend ignores it.
        """
        if self.backend == "compiled":
            from repro.compile.runner import run_compiled

            return run_compiled(self, compute, kernel)
        return self._run_pointwise(compute)

    def _run_pointwise(
        self, compute: Callable[[tuple[int, ...], ValueStore], None]
    ) -> SimulationResult:
        reg = obs.get_registry()
        store = self.store
        store._registry = reg
        with obs.span(
            "machine.simulate", mapping=self.mapping.name, backend="pointwise"
        ):
            points = sorted(
                self.algorithm.index_set.points(self.binding),
                key=store.time_of,
            )
            busy: dict[int, int] = {}
            for point in points:
                t = store.time_of(point)
                pos = store.processor_of(point)
                pe = self.pes.get(pos)
                if pe is None:
                    pe = self.pes[pos] = ProcessorElement(pos)
                pe.fire(t, point)
                busy[t] = busy.get(t, 0) + 1
                store._set_context(t, point)
                compute(point, store)
            store._set_context(None, None)  # post-run reads: off the clock
            if points:
                first = store.time_of(points[0])
                last = store.time_of(points[-1])
            else:
                first, last = 0, -1
            result = SimulationResult(
                makespan=last - first + 1,
                first_time=first,
                last_time=last,
                computations=len(points),
                processor_count=len(self.pes),
                busy_per_step=busy,
                store_reads=store.reads,
                store_writes=store.writes,
                pe_busy={pos: pe.busy_cycles for pos, pe in self.pes.items()},
            )
        emit_machine_metrics(reg, result, store)
        return result
