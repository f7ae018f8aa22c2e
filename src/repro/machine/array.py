"""Structural systolic-array model built from a mapping.

:class:`SystolicArray` materializes the geometry a mapping implies: the PE
set ``S(J)``, and one link per (PE, used primitive) pair, with buffer depths
taken from the interconnect solution.  From it, the wiring statistics the
paper discusses qualitatively become measurable: total wire length, longest
wire, buffer count (Fig. 4 needs length-``p`` wires and a buffered ``[1,0]ᵀ``
link; Fig. 5 is pure nearest-neighbour).
"""

from __future__ import annotations

from repro.machine.links import Link
from repro.machine.pe import ProcessorElement
from repro.mapping.interconnect import InterconnectSolution
from repro.mapping.spacetime import processor_set
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding

__all__ = ["SystolicArray"]


class SystolicArray:
    """The PE grid and link fabric induced by a mapping on an algorithm."""

    def __init__(
        self,
        mapping: MappingMatrix,
        algorithm: Algorithm,
        binding: ParamBinding,
        interconnect: InterconnectSolution | None = None,
    ):
        self.mapping = mapping
        self.algorithm = algorithm
        self.binding = dict(binding)
        self.interconnect = interconnect

        #: position -> ProcessorElement, in coordinate order
        self.pes: dict[tuple[int, ...], ProcessorElement] = {
            pos: ProcessorElement(pos)
            for pos in sorted(
                processor_set(mapping, algorithm.index_set, binding)
            )
        }

        #: (src, primitive) -> Link, for primitives actually used
        self.links: dict[tuple[tuple[int, ...], tuple[int, ...]], Link] = {}
        if interconnect is not None:
            self._build_links()

    def _build_links(self) -> None:
        assert self.interconnect is not None
        p_matrix = self.interconnect.p_matrix
        k_matrix = self.interconnect.k_matrix
        r = len(k_matrix)
        m = len(k_matrix[0]) if r else 0
        dims = len(p_matrix)
        used = [
            j
            for j in range(r)
            if any(k_matrix[j][i] for i in range(m))
            and any(p_matrix[d][j] for d in range(dims))
        ]
        # Buffer depth per primitive: the largest slack of any dependence
        # routed (solely) over it.  This matches the paper's reading: the
        # [1,0]ᵀ primitive of Fig. 4 gets one buffer because d̄₄ arrives one
        # time unit early.
        buffer_for: dict[int, int] = {j: 0 for j in used}
        for i in range(m):
            hops_i = [(j, k_matrix[j][i]) for j in used if k_matrix[j][i]]
            if len(hops_i) == 1 and hops_i[0][1] == 1:
                j = hops_i[0][0]
                buffer_for[j] = max(buffer_for[j], self.interconnect.buffers[i])
        for pos in self.pes:
            for j in used:
                prim = tuple(p_matrix[d][j] for d in range(dims))
                dst = tuple(a + b for a, b in zip(pos, prim))
                if dst in self.pes:
                    self.links[(pos, prim)] = Link(
                        pos, dst, prim, buffers=buffer_for[j]
                    )

    # -- statistics ---------------------------------------------------------
    @property
    def processor_count(self) -> int:
        """``|S(J)|``."""
        return len(self.pes)

    @property
    def link_count(self) -> int:
        """Number of instantiated directed links."""
        return len(self.links)

    @property
    def longest_wire(self) -> int:
        """Chebyshev length of the longest instantiated wire."""
        return max((link.length for link in self.links.values()), default=0)

    @property
    def buffer_count(self) -> int:
        """Total buffer stages across all links."""
        return sum(link.buffers for link in self.links.values())

    def __repr__(self) -> str:
        return (
            f"SystolicArray({self.processor_count} PEs, {self.link_count} links, "
            f"longest wire {self.longest_wire})"
        )
