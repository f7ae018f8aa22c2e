"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for sampled tests."""
    return random.Random(0xBEEF)


def random_matrix(rng: random.Random, u: int, p: int) -> list[list[int]]:
    """A ``u x u`` matrix of ``p``-bit nonnegative integers."""
    return [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]


def reference_matmul(
    x: list[list[int]], y: list[list[int]], mask: int | None = None
) -> list[list[int]]:
    """Plain-integer matrix product, optionally reduced mod ``mask + 1``."""
    u = len(x)
    out = [
        [sum(x[i][k] * y[k][j] for k in range(u)) for j in range(u)]
        for i in range(u)
    ]
    if mask is not None:
        out = [[v & mask for v in row] for row in out]
    return out


def unimodular(a: list[list[int]]) -> bool:
    """``a`` is square with determinant ``±1``, by elimination over
    ``Fraction``: the reference the Hermite and Smith transforms are
    checked against."""
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    work = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return False
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return abs(det) == 1
