"""The streaming event bus: structured telemetry events and pluggable sinks.

obs v1 was collect-then-export: a :class:`~repro.obs.core.Registry`
accumulated metrics and the exporters read them after the run.  The bus
adds the *streaming* half: when one or more sinks are attached to a
registry, every mutation (span open/close, counter increment, gauge set,
histogram observation, progress tick) is also emitted **in real time** as
a structured event dict.  With no sinks attached nothing is emitted, so
the v1 no-op fast path (and the disabled-by-default zero-cost path) is
untouched.

Event shapes (all JSON-ready dicts; ``ts`` is ``time.perf_counter()``,
``pid`` the emitting process):

========== ==================================================================
type       extra fields
========== ==================================================================
span_start ``id``, ``parent``, ``name``, ``attrs``
span_end   ``id``, ``name``, ``dur_s``
counter    ``name``, ``delta``, ``value`` (cumulative)
gauge      ``name``, ``value``
observe    ``name``, ``value`` -- or, for an ``observe_many`` batch,
           ``count``, ``sum``, ``min``, ``max``
progress   ``name``, ``done``, ``total``, ``rate``, ``eta_s``, ``final``
series     ``name``, ``points`` (``[[t, v], ...]`` on a caller timebase)
========== ==================================================================

Two sinks cover the consumers, both in the CLI:

* :class:`RingBufferSink` -- a bounded in-memory buffer, used by the
  Chrome-trace exporter to reconstruct counter tracks;
* :class:`CallbackSink` -- an arbitrary callable (optionally filtered by
  event type): what the CLI uses to render live ``--trace`` progress
  lines.

:class:`Progress` is the live progress API: ``obs.progress(name, total)``
yields a tracker whose ``advance()`` emits rate/ETA events over the bus
(throttled to ``min_interval`` seconds) and records a final
``progress.<name>`` gauge so the completed count lands in the metrics
dict.
"""

from __future__ import annotations

import collections
import time
from typing import Callable, Iterable

__all__ = [
    "CallbackSink",
    "Progress",
    "RingBufferSink",
]


class RingBufferSink:
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        self.events: collections.deque = collections.deque(maxlen=capacity)

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class CallbackSink:
    """Forward events to a callable, optionally filtered by event type.

    This is the subscription mechanism for live consumers (the CLI's
    stderr progress renderer): attach one to a registry and every
    matching event is pushed to the callback as it happens.
    """

    def __init__(
        self,
        fn: Callable[[dict], None],
        kinds: Iterable[str] | None = None,
    ) -> None:
        self._fn = fn
        self._kinds = frozenset(kinds) if kinds is not None else None

    def emit(self, event: dict) -> None:
        if self._kinds is None or event["type"] in self._kinds:
            self._fn(event)


class Progress:
    """Live progress over a loop, emitting rate/ETA events over the bus.

    Created via :meth:`Registry.progress <repro.obs.core.Registry.progress>`
    (or the ambient ``obs.progress``); usable as a context manager.  Each
    :meth:`advance` may emit a ``progress`` event -- emission is throttled
    to at most one event per ``min_interval`` seconds (the first and final
    ticks always emit) so hot loops pay one clock read per tick.  On close
    the final count is recorded as a ``progress.<name>`` gauge, making
    completed totals part of the deterministic metrics dict while the
    timing-dependent event stream stays on the bus.
    """

    __slots__ = (
        "_registry", "name", "total", "done", "_t0", "_last_emit", "_interval",
        "_closed",
    )

    def __init__(
        self,
        registry,
        name: str,
        total: int | None = None,
        min_interval: float = 0.2,
    ) -> None:
        self._registry = registry
        self.name = name
        self.total = total
        self.done = 0
        self._t0 = time.perf_counter()
        self._last_emit = 0.0
        self._interval = min_interval
        self._closed = False

    def advance(self, n: int = 1) -> None:
        """Record ``n`` completed items; emit an event unless throttled."""
        self.done += n
        if not self._registry.sinks:
            return
        now = time.perf_counter()
        if self._last_emit and now - self._last_emit < self._interval:
            return
        self._last_emit = now
        self._emit(now, final=False)

    def _emit(self, now: float, final: bool) -> None:
        elapsed = now - self._t0
        rate = self.done / elapsed if elapsed > 0 else None
        eta = None
        if rate and self.total is not None and self.total > self.done:
            eta = (self.total - self.done) / rate
        self._registry._emit(
            "progress",
            self.name,
            done=self.done,
            total=self.total,
            rate=rate,
            eta_s=eta,
            final=final,
        )

    def close(self) -> None:
        """Finalize: emit the last event and set the ``progress.*`` gauge."""
        if self._closed:
            return
        self._closed = True
        if self._registry.sinks:
            self._emit(time.perf_counter(), final=True)
        self._registry.gauge(f"progress.{self.name}", self.done)

    def __enter__(self) -> "Progress":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        return None


class NullProgress:
    """Shared no-op stand-in for ``obs.progress`` when collection is off."""

    __slots__ = ()
    done = 0
    total = None

    def advance(self, n: int = 1) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullProgress":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_PROGRESS = NullProgress()
