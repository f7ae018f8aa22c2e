"""Text rendering of dependence structures and schedules.

The paper communicates through annotated matrices (causes above the
columns, validity conditions below).  This module renders the library's
objects in the same spirit, monospace-only:

* :func:`render_dependence_matrix` -- the paper's ``D`` layout: one column
  per dependence vector, cause labels on top, validity conditions below;
* :func:`render_algorithm` -- index set + dependence matrix;
* :func:`render_gantt` -- PE occupancy over time of a design on a box
  (which beats are busy where), read off ``T`` without a run.

Everything returns plain strings; nothing here touches a display.
"""

from __future__ import annotations

from typing import Sequence

from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.conditions import TRUE
from repro.structures.dependence import DependenceMatrix
from repro.structures.indexset import box_lattice, image_census

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
    mapping: MappingMatrix,
    bounds: Sequence[tuple[int, int]],
    max_pes: int = 24,
    max_time: int = 80,
) -> str:
    """PE occupancy chart of ``mapping`` over the box ``bounds``: one row
    per PE (the first ``max_pes`` in coordinate order), one column per
    beat (at most ``max_time`` from the first).

    Under Definition 4.1 point ``j̄`` fires on PE ``S j̄`` at beat
    ``Π j̄``, so the chart is a function of ``T`` and the box: it is the
    firing record any run of the design keeps, drawn without one.
    """
    lattice = box_lattice(bounds)
    if not len(lattice):
        return "(no PEs fired)"
    times = mapping.times_of(lattice)
    procs = mapping.processors_of(lattice)
    pes, _ = image_census(mapping.rows[:-1], bounds)
    ordered = pes[:max_pes].tolist()
    t0 = int(times.min())
    beats = range(t0, min(int(times.max()), t0 + max_time - 1) + 1)
    if procs.shape[1]:
        # The shown PEs come first in coordinate order: a point whose PE
        # starts past the last shown one fires on none of them.
        near = procs[:, 0] <= ordered[-1][0]
        times, procs = times[near], procs[near]
    label_w = max(len(str(pos)) for pos in ordered)
    lines = [" " * label_w + " t=" + "".join(str(t % 10) for t in beats)]
    for pos in ordered:
        fired = set(times[(procs == pos).all(axis=1)].tolist())
        row = "".join("#" if t in fired else "." for t in beats)
        lines.append(f"{str(pos).rjust(label_w)}   {row}")
    hidden = len(pes) - len(ordered)
    if hidden > 0:
        lines.append(f"... ({hidden} more PEs)")
    return "\n".join(lines)
