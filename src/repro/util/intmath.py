"""Elementary exact integer arithmetic used throughout the library.

These helpers back the Diophantine machinery in
:mod:`repro.depanalysis.diophantine` and the feasibility checks in
:mod:`repro.mapping`.  Everything here works on plain Python integers and is
exact for arbitrary magnitudes.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "gcd_list",
    "ceil_div",
    "floor_div",
]


def gcd_list(values: Iterable[int]) -> int:
    """Greatest common divisor of an iterable of integers (``0`` if empty).

    ``gcd_list([0, 0])`` is ``0`` by convention, matching :func:`math.gcd`.
    """
    g = 0
    for v in values:
        g = math.gcd(g, v)
    return g


def floor_div(a: int, b: int) -> int:
    """Floor division ``floor(a / b)`` for nonzero integer ``b``.

    Python's ``//`` already floors for either sign of ``b``; this wrapper
    exists for symmetry with :func:`ceil_div` and to document the intent.
    """
    return a // b


def ceil_div(a: int, b: int) -> int:
    """Ceiling division ``ceil(a / b)`` for nonzero integer ``b``."""
    return -((-a) // b)
