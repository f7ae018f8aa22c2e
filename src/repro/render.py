"""Text rendering of dependence structures and schedules.

The paper communicates through annotated matrices (causes above the
columns, validity conditions below).  This module renders the library's
objects in the same spirit, monospace-only:

* :func:`render_dependence_matrix` -- the paper's ``D`` layout: one column
  per dependence vector, cause labels on top, validity conditions below;
* :func:`render_algorithm` -- index set + dependence matrix;
* :func:`render_gantt` -- PE-occupancy over time for a finished simulation
  (which beats were busy where).

Everything returns plain strings; nothing here touches a display.
"""

from __future__ import annotations

from repro.machine.pe import ProcessorElement
from repro.structures.algorithm import Algorithm
from repro.structures.conditions import TRUE
from repro.structures.dependence import DependenceMatrix

__all__ = [
    "render_dependence_matrix",
    "render_algorithm",
    "render_gantt",
]


def render_dependence_matrix(dep: DependenceMatrix) -> str:
    """The paper's matrix layout: causes / entries / validity conditions."""
    if not len(dep):
        return "(empty dependence matrix)"
    cols = []
    for vec in dep:
        causes = ",".join(vec.causes) or "?"
        entries = [str(x) for x in vec.vector]
        validity = "q̄" if vec.validity == TRUE else repr(vec.validity)
        cols.append([causes, *entries, validity])
    widths = [max(len(row) for row in col) for col in cols]
    n_rows = dep.dim
    lines = []
    # Causes row.
    lines.append("  " + "  ".join(c[0].center(w) for c, w in zip(cols, widths)))
    # Matrix body.
    for r in range(n_rows):
        body = "  ".join(c[1 + r].rjust(w) for c, w in zip(cols, widths))
        edge = "[]" if r in (0, n_rows - 1) or n_rows == 1 else "||"
        lines.append(f"{edge[0]} {body} {edge[1]}")
    # Validity row (may be long: stack vertically when wide).
    validity_cells = [c[-1] for c in cols]
    if sum(len(v) for v in validity_cells) <= 100:
        lines.append("  " + "  ".join(v.center(w) for v, w in zip(validity_cells, widths)))
    else:
        for i, v in enumerate(validity_cells):
            lines.append(f"  col {i + 1} valid at: {v}")
    return "\n".join(lines)


def render_algorithm(algorithm: Algorithm) -> str:
    """Index set plus dependence matrix, titled."""
    kind = "uniform" if algorithm.is_uniform else "conditional"
    header = (
        f"Algorithm {algorithm.name!r} ({algorithm.dim}-dimensional, "
        f"{len(algorithm.dependences)} {kind} dependence vectors)\n"
        f"J = {algorithm.index_set!r}\nD ="
    )
    return header + "\n" + render_dependence_matrix(algorithm.dependences)


def render_gantt(
    pes: dict[tuple[int, ...], ProcessorElement],
    max_pes: int = 24,
    max_time: int = 80,
) -> str:
    """PE occupancy chart: one row per PE, one column per beat."""
    if not pes:
        return "(no PEs fired)"
    times = [t for pe in pes.values() for t in pe.firings]
    t0, t1 = min(times), max(times)
    span = min(t1, t0 + max_time - 1)
    ordered = sorted(pes)[:max_pes]
    label_w = max(len(str(list(pos))) for pos in ordered)
    lines = [
        " " * label_w + " t=" + "".join(
            str(t % 10) for t in range(t0, span + 1)
        )
    ]
    for pos in ordered:
        pe = pes[pos]
        row = "".join(
            "#" if t in pe.firings else "." for t in range(t0, span + 1)
        )
        lines.append(f"{str(list(pos)).rjust(label_w)}   {row}")
    hidden = len(pes) - len(ordered)
    if hidden > 0:
        lines.append(f"... ({hidden} more PEs)")
    return "\n".join(lines)
