"""Processor elements of a systolic array.

A :class:`ProcessorElement` is a bookkeeping cell: it records which index
points execute on it and when, from which per-PE utilization and conflict
statistics are derived.  The functional behaviour lives in the executors
(:mod:`repro.machine.simulator` and :mod:`repro.machine.bitlevel`); keeping
the structural model value-free lets one array host any computation.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["ProcessorElement"]


class ProcessorElement:
    """One PE at fixed array coordinates."""

    __slots__ = ("position", "firings")

    def __init__(self, position: Sequence[int]):
        self.position: tuple[int, ...] = tuple(int(x) for x in position)
        #: time -> index point executed at that time
        self.firings: dict[int, tuple[int, ...]] = {}

    def fire(self, time: int, point: Sequence[int]) -> None:
        """Record the execution of ``point`` at ``time``.

        Raises ``ValueError`` on a computational conflict (two distinct
        points in the same time slot) -- condition 3 of Definition 4.1
        enforced at run time.
        """
        point = tuple(point)
        existing = self.firings.get(time)
        if existing is not None and existing != point:
            raise ValueError(
                f"conflict on PE {self.position} at t={time}: "
                f"{existing} vs {point}"
            )
        self.firings[time] = point

    @property
    def busy_cycles(self) -> int:
        """Number of time slots in which this PE computes."""
        return len(self.firings)

    def __repr__(self) -> str:
        return f"PE{self.position}({self.busy_cycles} firings)"
