"""Metric primitives and the tracing registry.

A :class:`Registry` is a process-local collection point for three kinds of
metrics plus a tree of tracing spans:

* *counters* -- monotonically increasing event counts (``count``);
* *gauges* -- last-value-wins measurements (``gauge``);
* *histograms* -- streaming aggregates of observed values (``observe``),
  kept as count/sum/min/max plus a bounded deterministic sample reservoir
  for percentiles, so instrumenting a hot loop costs O(1) memory;
* *spans* -- nested wall-time intervals on the monotonic clock
  (``span``), forming a tree that mirrors the call structure.

Registries are plain objects: they can be used directly (as the E7
experiment does, to time both analyzers with one mechanism) or installed
as the process-wide active registry via :func:`repro.obs.collecting`, in
which case the library's built-in instrumentation feeds them.

A registry records; it does not stream.  Every view of a run (the metrics
dict, the span trace, the Chrome trace) is read from it after the fact.
"""

from __future__ import annotations

import math
import operator
import os
import time
from functools import reduce
from typing import Iterable, Iterator, Mapping

__all__ = ["Histogram", "Span", "Registry"]

#: Bounded per-histogram sample reservoir for percentile estimates.
RESERVOIR_CAP = 512

#: Percentiles reported by :meth:`Histogram.as_dict` (and hence every
#: metrics export).
PERCENTILES = (50, 90, 99)


class Histogram:
    """Streaming aggregate of a series of observations.

    Alongside count/sum/min/max, a bounded reservoir of raw samples backs
    the percentile estimates.  The reservoir is **deterministic**: the
    first :data:`RESERVOIR_CAP` observations are kept verbatim (exact
    percentiles), after which each new observation overwrites the slot
    ``(count - 1) % cap`` -- no RNG, so identical observation sequences
    always produce identical percentile reports.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "cap")

    def __init__(self, cap: int = RESERVOIR_CAP) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.samples: list[float] = []
        self.cap = cap

    def observe(self, value: float) -> None:
        """Fold one observation into the aggregate."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self.cap:
            self.samples.append(value)
        else:
            self.samples[(self.count - 1) % self.cap] = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations in one call.

        The state equals :meth:`observe` on each value in turn -- the sum
        accumulates left to right and the reservoir slots fill and wrap in
        the same order -- without a Python call per value.
        """
        self._fold([float(v) for v in values])

    def _fold(self, batch: list[float]) -> None:
        """:meth:`observe_many` on a batch already converted to floats."""
        if not batch:
            return
        seen = self.count
        self.count += len(batch)
        self.total = reduce(operator.add, batch, self.total)
        lo, hi = min(batch), max(batch)
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        samples = self.samples
        room = self.cap - len(samples)
        if room > 0:
            samples.extend(batch[:room])
            seen += room
            batch = batch[room:]
        # Past the cap, observation ``seen + 1`` overwrites slot
        # ``seen % cap``; only the last ``cap`` of the batch survive.
        if len(batch) > self.cap:
            seen += len(batch) - self.cap
            batch = batch[-self.cap:]
        for value in batch:
            samples[seen % self.cap] = value
            seen += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile over the reservoir (None when empty).

        Exact while ``count <= cap``; an estimate from the deterministic
        reservoir beyond that.
        """
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        # Classic nearest-rank: the smallest value with at least q% of
        # the samples at or below it.
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(q * len(ordered) / 100) - 1))
        return ordered[rank]

    def as_dict(self) -> dict:
        """JSON-ready summary (count/sum/min/max/mean + percentiles)."""
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for q in PERCENTILES:
            out[f"p{q}"] = self.percentile(q)
        return out

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, sum={self.total:g}, "
            f"min={self.min}, max={self.max})"
        )


class Span:
    """One timed interval in the trace tree.

    ``start``/``end`` are :func:`time.perf_counter` readings; ``duration``
    is valid after the span closes (and reads as time-so-far while open).
    """

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start", "end", "children")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: Mapping | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.start = time.perf_counter()
        self.end: float | None = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Seconds elapsed (to now, if the span is still open)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def close(self) -> None:
        """Stamp the end time (idempotent)."""
        if self.end is None:
            self.end = time.perf_counter()

    def walk(self) -> Iterator["Span"]:
        """Depth-first, pre-order iteration over this span and descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms)"


class _SpanContext:
    """Context manager pushing/popping one span on a registry's stack."""

    __slots__ = ("_registry", "_span")

    def __init__(self, registry: "Registry", span: Span):
        self._registry = registry
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._span.close()
        stack = self._registry._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        return None


class Registry:
    """Process-local metrics + trace collection point."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.roots: list[Span] = []
        self.pid = os.getpid()
        self._stack: list[Span] = []
        self._next_id = 0

    # -- scalar metrics -------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def count_many(self, values: Mapping[str, int], prefix: str = "") -> None:
        """Fold a whole ``{name: n}`` mapping into the counters at once
        (lets hot loops keep a local dict and report on exit)."""
        for key, n in values.items():
            name = prefix + key
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        """Record a batch of observations into histogram ``name`` in one
        call, in order (see :meth:`Histogram.observe_many`); an empty
        batch records nothing."""
        batch = [float(v) for v in values]
        if not batch:
            return
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist._fold(batch)

    # -- spans ----------------------------------------------------------------
    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a nested span; use as ``with reg.span("phase") as sp:``.

        The yielded :class:`Span` exposes ``duration`` after the block, so
        span timing doubles as a timer API.
        """
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            name,
            attrs,
        )
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def iter_spans(self) -> Iterator[Span]:
        """All spans, depth-first from each root."""
        for root in self.roots:
            yield from root.walk()

    # -- aggregation ----------------------------------------------------------
    def span_stats(self) -> dict[str, dict]:
        """Wall time per span name: ``{name: {count, total_s, min_s, max_s}}``."""
        agg: dict[str, Histogram] = {}
        for span in self.iter_spans():
            hist = agg.get(span.name)
            if hist is None:
                hist = agg[span.name] = Histogram()
            hist.observe(span.duration)
        return {
            name: {
                "count": h.count,
                "total_s": h.total,
                "min_s": h.min,
                "max_s": h.max,
            }
            for name, h in agg.items()
        }

    def metrics(self) -> dict:
        """The flat, JSON-ready metrics dict (the canonical export)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: h.as_dict() for name, h in self.histograms.items()
            },
            "spans": self.span_stats(),
        }

    def __repr__(self) -> str:
        return (
            f"Registry({len(self.counters)} counters, {len(self.gauges)} "
            f"gauges, {len(self.histograms)} histograms, "
            f"{sum(1 for _ in self.iter_spans())} spans)"
        )
