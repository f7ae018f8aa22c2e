"""Interconnection links.

A :class:`Link` instantiates one interconnection primitive between two PE
positions, with an optional chain of buffer stages (the slack
``Π d̄ - Σ k`` of condition (4.1)).  Wire length is the Chebyshev length of
the primitive vector -- the paper's "long wires" ``[p, 0]ᵀ`` have length
``p`` while mesh links have length 1, which is the cost the Fig. 4 / Fig. 5
trade-off is about.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["Link", "wire_length"]


def wire_length(primitive: Sequence[int]) -> int:
    """Chebyshev (max-coordinate) length of a primitive displacement."""
    return max((abs(int(x)) for x in primitive), default=0)


class Link:
    """A directed link realizing one primitive between two PEs."""

    __slots__ = ("src", "dst", "primitive", "buffers")

    def __init__(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        primitive: Sequence[int],
        buffers: int = 0,
    ):
        self.src = tuple(int(x) for x in src)
        self.dst = tuple(int(x) for x in dst)
        self.primitive = tuple(int(x) for x in primitive)
        if tuple(d - s for s, d in zip(self.src, self.dst)) != self.primitive:
            raise ValueError(
                f"link endpoints {self.src}->{self.dst} do not match "
                f"primitive {self.primitive}"
            )
        self.buffers = int(buffers)

    @property
    def length(self) -> int:
        """Physical wire length (Chebyshev norm of the primitive)."""
        return wire_length(self.primitive)

    def __repr__(self) -> str:
        buf = f" +{self.buffers}buf" if self.buffers else ""
        return f"Link{self.src}->{self.dst} via {self.primitive}{buf}"
