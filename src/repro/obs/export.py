"""Exporters: human-readable span tree, JSON-lines trace, metrics JSON,
Chrome trace-event file.

Four views of one :class:`~repro.obs.core.Registry`:

* :func:`render_tree` -- an indented wall-time tree plus metric tables,
  meant for a human reading stderr after a run;
* :func:`trace_lines` / :func:`write_trace` -- one JSON object per span
  (id/parent-id/name/start/end/attrs) followed by a ``metrics`` footer
  record, i.e. a JSON-lines file a script can replay;
* :func:`metrics_dict` / :func:`write_metrics` -- the flat metrics dict
  (counters, gauges, histogram aggregates, per-span-name wall times);
* :func:`chrome_trace_events` / :func:`write_chrome_trace` -- the Chrome
  trace-event (Perfetto) format: spans become ``"X"`` complete events on
  the registry's process track, and each counter and gauge becomes one
  ``"C"`` sample of its final value at the end of the run.  The output
  is one JSON array, loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterator

from repro.obs.core import Registry, Span

__all__ = [
    "render_tree",
    "metrics_dict",
    "trace_lines",
    "write_trace",
    "write_metrics",
    "chrome_trace_events",
    "write_chrome_trace",
]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}µs"


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    attrs = ""
    if span.attrs:
        attrs = " [" + ", ".join(f"{k}={v}" for k, v in span.attrs.items()) + "]"
    lines.append(
        f"{'  ' * depth}- {span.name}  {_fmt_seconds(span.duration)}{attrs}"
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_tree(registry: Registry) -> str:
    """The whole registry as an indented text report."""
    lines = ["== trace =="]
    if registry.roots:
        for root in registry.roots:
            _render_span(root, 0, lines)
    else:
        lines.append("(no spans recorded)")
    if registry.counters:
        lines.append("== counters ==")
        width = max(len(n) for n in registry.counters)
        for name in sorted(registry.counters):
            lines.append(f"{name:<{width}}  {registry.counters[name]}")
    if registry.gauges:
        lines.append("== gauges ==")
        width = max(len(n) for n in registry.gauges)
        for name in sorted(registry.gauges):
            lines.append(f"{name:<{width}}  {registry.gauges[name]:g}")
    if registry.histograms:
        lines.append("== histograms ==")
        for name in sorted(registry.histograms):
            h = registry.histograms[name]
            quantiles = " ".join(
                f"p{q}={h.percentile(q):g}" for q in (50, 90, 99)
                if h.percentile(q) is not None
            )
            lines.append(
                f"{name}  n={h.count} mean={h.mean:g} min={h.min:g} "
                f"max={h.max:g} sum={h.total:g}"
                + (f" {quantiles}" if quantiles else "")
            )
    return "\n".join(lines)


def metrics_dict(registry: Registry) -> dict:
    """Flat, JSON-serializable metrics (see :meth:`Registry.metrics`)."""
    return registry.metrics()


def trace_lines(registry: Registry) -> Iterator[str]:
    """JSON-lines trace: one ``span`` record per span, then a ``metrics``
    footer record carrying the flat metrics dict."""
    for span in registry.iter_spans():
        yield json.dumps(
            {
                "type": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "dur_s": span.duration,
                "attrs": span.attrs,
            },
            sort_keys=True,
        )
    yield json.dumps({"type": "metrics", **registry.metrics()}, sort_keys=True)


def write_trace(registry: Registry, path: str | pathlib.Path) -> None:
    """Write the JSON-lines trace to ``path``."""
    pathlib.Path(path).write_text("\n".join(trace_lines(registry)) + "\n")


def write_metrics(registry: Registry, path: str | pathlib.Path) -> None:
    """Write the flat metrics dict to ``path`` as one JSON document."""
    pathlib.Path(path).write_text(
        json.dumps(metrics_dict(registry), indent=2, sort_keys=True) + "\n"
    )


def chrome_trace_events(registry: Registry) -> list[dict]:
    """The registry as Chrome trace events.

    Spans become ``"X"`` complete events on the registry's own process
    track (labelled ``parent (pid N)``); all timestamps are rebased to the
    earliest span start and scaled to microseconds.  Each counter and
    gauge becomes one ``"C"`` sample holding its final value, stamped at
    the end of the last span to close.

    Every emitted event -- including ``"M"`` metadata and ``"C"`` counter
    events, where the format itself would not require it -- carries the
    full ``ts``/``dur``/``pid``/``tid``/``name`` key set; trace viewers
    ignore the extras and downstream tooling gets a uniform schema.
    """
    pid = registry.pid
    spans = list(registry.iter_spans())
    t0 = min((span.start for span in spans), default=0.0)

    def _us(t: float) -> float:
        return round((t - t0) * 1e6, 3)

    out: list[dict] = []
    t_end = t0
    for span in spans:
        end = span.end if span.end is not None else span.start
        t_end = max(t_end, end)
        args = {str(k): v for k, v in span.attrs.items()}
        out.append({
            "ph": "X",
            "cat": "span",
            "name": span.name,
            "ts": _us(span.start),
            "dur": round(max(0.0, end - span.start) * 1e6, 3),
            "pid": pid,
            "tid": 1,
            "args": args,
        })
    for kind, values in (("counter", registry.counters),
                         ("gauge", registry.gauges)):
        for name in sorted(values):
            out.append({
                "ph": "C",
                "cat": kind,
                "name": name,
                "ts": _us(t_end),
                "dur": 0,
                "pid": pid,
                "tid": 1,
                "args": {"value": values[name]},
            })
    out.sort(key=lambda e: e["ts"])
    if not out:
        return out
    meta = {
        "ph": "M",
        "cat": "__metadata",
        "name": "process_name",
        "ts": 0,
        "dur": 0,
        "pid": pid,
        "tid": 1,
        "args": {"name": f"parent (pid {pid})"},
    }
    return [meta] + out


def write_chrome_trace(registry: Registry, path: str | pathlib.Path) -> None:
    """Write the Chrome trace-event JSON array to ``path``."""
    rows = chrome_trace_events(registry)
    with open(path, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(row, sort_keys=True) for row in rows))
        fh.write("\n]\n")
