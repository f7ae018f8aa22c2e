"""Observability: tracing spans, counters, gauges, histograms, exporters.

The library's instrumentation substrate.  Two usage modes:

*Direct* -- construct a :class:`Registry` and call its methods; nothing is
global.  This is how the E7 cost experiment times both analyzers.

*Ambient* -- install a registry as the process-wide collection point with
:func:`collecting`; every instrumented layer (dependence analysis, the
design search, the space-time simulator) then feeds it through the
module-level helpers below::

    from repro import obs

    with obs.collecting() as reg:
        search_designs(alg, binding, prims)
    print(obs.render_tree(reg))          # human-readable
    obs.write_metrics(reg, "m.json")     # flat metrics dict
    obs.write_trace(reg, "trace.jsonl")  # JSON-lines span trace

**Zero cost when disabled.**  By default no registry is installed and
every helper (``count``, ``count_many``, ``gauge``, ``span``) reduces to
a single ``is None`` check (``span`` returns a shared no-op context
manager).  Instrumented hot loops additionally batch into local dicts
and report once on exit, so the disabled path never pays per-event
costs.  A loop's progress is one ``progress.<name>`` gauge, set when the
loop ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.core import Histogram, Registry, Span
from repro.obs.export import (
    chrome_trace_events,
    metrics_dict,
    render_tree,
    trace_lines,
    write_chrome_trace,
    write_metrics,
    write_trace,
)

__all__ = [
    "Histogram",
    "Registry",
    "Span",
    "chrome_trace_events",
    "collecting",
    "count",
    "count_many",
    "environment_info",
    "gauge",
    "get_registry",
    "metrics_dict",
    "render_tree",
    "set_registry",
    "span",
    "trace_lines",
    "write_chrome_trace",
    "write_metrics",
    "write_trace",
]

#: The ambient registry; ``None`` means instrumentation is disabled.
_ACTIVE: Registry | None = None


class _NullSpanContext:
    """Shared no-op stand-in for ``span()`` when collection is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


def get_registry() -> Registry | None:
    """The ambient registry, or ``None`` when disabled."""
    return _ACTIVE


def set_registry(registry: Registry | None) -> Registry | None:
    """Install ``registry`` as the ambient registry; returns the previous
    one so callers can restore it (prefer :func:`collecting`)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def environment_info() -> dict:
    """Hardware/software provenance for benchmark and metrics reports.

    Captures what a reader needs to interpret recorded timings -- CPU
    count, interpreter, platform, numpy version and the git commit, with
    ``-dirty`` appended when tracked files differ from it -- without
    failing anywhere: unavailable fields come back ``None``.
    """
    import os
    import platform

    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    info["commit"] = None
    try:
        import subprocess

        def git(*args):
            return subprocess.run(
                ["git", *args],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip()

        info["commit"] = git("rev-parse", "--short", "HEAD") or None
        if info["commit"] and git("--no-optional-locks", "status",
                                  "--porcelain", "--untracked-files=no"):
            info["commit"] += "-dirty"
    except (OSError, subprocess.SubprocessError):
        pass
    return info


@contextmanager
def collecting(registry: Registry | None = None) -> Iterator[Registry]:
    """Enable ambient collection for the ``with`` body.

    A fresh :class:`Registry` is created unless one is passed; the
    previously active registry (usually none) is restored on exit.
    """
    reg = registry if registry is not None else Registry()
    previous = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)


# -- ambient helpers (no-ops when disabled) -----------------------------------
def count(name: str, n: int = 1) -> None:
    """Increment a counter on the ambient registry."""
    reg = _ACTIVE
    if reg is not None:
        reg.count(name, n)


def count_many(values, prefix: str = "") -> None:
    """Fold a ``{name: n}`` mapping into the ambient counters."""
    reg = _ACTIVE
    if reg is not None:
        reg.count_many(values, prefix)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the ambient registry."""
    reg = _ACTIVE
    if reg is not None:
        reg.gauge(name, value)


def span(name: str, **attrs):
    """Open an ambient span (a shared no-op when disabled)."""
    reg = _ACTIVE
    if reg is None:
        return _NULL_SPAN
    return reg.span(name, **attrs)

