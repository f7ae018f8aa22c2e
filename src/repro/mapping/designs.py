"""The paper's concrete architecture designs (Section 4.2).

* :func:`fig4_mapping` -- the time-optimal bit-level design ``T`` of eq.
  (4.2), with its long-wire primitive matrix ``P`` and the literal ``K`` of
  eq. (4.3); execution time ``t = 3(u-1) + 3(p-1) + 1`` (eq. (4.5)) on
  ``u²p²`` processors.
* :func:`fig5_mapping` -- the nearest-neighbour design ``T'`` of eq. (4.6)
  with ``P'`` of eq. (4.7); ``(u·p)²`` processors, no long wires.

  **Reproduction note (eq. (4.8)).**  The paper evaluates
  ``t' = Π'([u,u,u,p,p]ᵀ - [1,1,1,1,1]ᵀ) + 1`` and prints the result as
  ``(2p-1)(u-1) + 3(p-1) + 1``; the product with the printed
  ``Π' = [p, p, 1, 2, 1]`` is actually ``(2p+1)(u-1) + 3(p-1) + 1``.  The
  simulator confirms the latter; both have the same leading behaviour
  ``Θ(p·u)``, so every qualitative claim stands.  Both formulas are exposed
  (:func:`t_fig5`, :func:`t_fig5_printed`).

* :func:`word_level_mapping` / :func:`word_level_time` -- the best
  word-level systolic matmul baseline [4]: ``t = (3(u-1)+1) · t_b`` where
  ``t_b`` is the sequential multiply-add time of the chosen arithmetic
  algorithm (``O(p²)`` add-shift, ``O(p)`` carry-save).
* :func:`speedup` -- the headline comparison: ``O(p²)`` over an add-shift
  word-level array, ``O(p)`` over a carry-save one.
"""

from __future__ import annotations

from repro.arith.sequential import word_multiplier_cycles
from repro.mapping.transform import MappingMatrix

__all__ = [
    "fig4_mapping",
    "fig4_primitives",
    "fig4_k_paper",
    "t_fig4",
    "fig4_processor_count",
    "fig5_mapping",
    "fig5_primitives",
    "t_fig5",
    "t_fig5_printed",
    "fig5_processor_count",
    "word_level_mapping",
    "word_level_time",
    "speedup",
]


# ---------------------------------------------------------------------------
# Fig. 4: the time-optimal design T of eq. (4.2)
# ---------------------------------------------------------------------------

def fig4_mapping(p: int) -> MappingMatrix:
    """Eq. (4.2): ``T = [[p,0,0,1,0], [0,p,0,0,1], [1,1,1,2,1]]``.

    Word-index blocks of size ``p x p`` tile the ``up x up`` array; ``x``
    and ``y`` hop between blocks on long wires of length ``p`` while bits
    move to nearest neighbours inside a block -- two different speeds.
    """
    return MappingMatrix(
        [[p, 0, 0, 1, 0], [0, p, 0, 0, 1], [1, 1, 1, 2, 1]], name="T-fig4"
    )


def fig4_primitives(p: int) -> list[list[int]]:
    """Eq. (4.3) ``P``: long wires ``[p,0]ᵀ``, ``[0,p]ᵀ``, a stationary
    (null) primitive, and the mesh links ``[1,0]ᵀ``, ``[0,1]ᵀ``,
    ``[1,-1]ᵀ``."""
    return [
        [p, 0, 0, 1, 0, 1],
        [0, p, 0, 0, 1, -1],
    ]


def fig4_k_paper() -> list[list[int]]:
    """The literal ``K`` of eq. (4.3) (columns ordered ``d̄₁ ... d̄₇``)."""
    return [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 2],
        [0, 0, 0, 0, 0, 1, 0],
    ]


def t_fig4(u: int, p: int) -> int:
    """Eq. (4.5): ``t = 3(u-1) + 3(p-1) + 1``."""
    return 3 * (u - 1) + 3 * (p - 1) + 1


def fig4_processor_count(u: int, p: int) -> int:
    """``s = u²p²`` (Section 4.2)."""
    return u * u * p * p


# ---------------------------------------------------------------------------
# Fig. 5: the nearest-neighbour design T' of eq. (4.6)
# ---------------------------------------------------------------------------

def fig5_mapping(p: int) -> MappingMatrix:
    """Eq. (4.6): ``T' = [[p,0,0,1,0], [0,p,0,0,1], [p,p,1,2,1]]``.

    Same space mapping as Fig. 4 but ``x`` and ``y`` words crawl between
    blocks at nearest-neighbour speed (schedule coefficients ``p``), so no
    long wires are needed.
    """
    return MappingMatrix(
        [[p, 0, 0, 1, 0], [0, p, 0, 0, 1], [p, p, 1, 2, 1]], name="T'-fig5"
    )


def fig5_primitives() -> list[list[int]]:
    """Eq. (4.7) ``P'``: mesh links ``[1,0]ᵀ``, ``[0,1]ᵀ``, ``[1,-1]ᵀ`` and
    the stationary (null) primitive -- unit-length wires only."""
    return [
        [1, 0, 1, 0],
        [0, 1, -1, 0],
    ]


def t_fig5(u: int, p: int) -> int:
    """Execution time of ``T'`` evaluated exactly:
    ``t' = (2p+1)(u-1) + 3(p-1) + 1`` (see the module reproduction note)."""
    return (2 * p + 1) * (u - 1) + 3 * (p - 1) + 1


def t_fig5_printed(u: int, p: int) -> int:
    """Eq. (4.8) *as printed* in the paper: ``(2p-1)(u-1) + 3(p-1) + 1``."""
    return (2 * p - 1) * (u - 1) + 3 * (p - 1) + 1


def fig5_processor_count(u: int, p: int) -> int:
    """``s = (u·p)²`` (Section 4.2)."""
    return (u * p) ** 2


# ---------------------------------------------------------------------------
# Word-level baseline [4]
# ---------------------------------------------------------------------------

def word_level_mapping() -> MappingMatrix:
    """The best word-level systolic matmul design [4]:
    ``T_w = [[1,0,0], [0,1,0], [1,1,1]]`` on a ``u x u`` mesh, one
    multiply-accumulate (cost ``t_b``) per beat."""
    return MappingMatrix([[1, 0, 0], [0, 1, 0], [1, 1, 1]], name="T-word")


def word_level_time(u: int, p: int, arithmetic: str = "add-shift") -> int:
    """``t = (3(u-1)+1) · t_b`` with ``t_b`` from the sequential multiplier
    of the named arithmetic algorithm (Section 4.2)."""
    return (3 * (u - 1) + 1) * word_multiplier_cycles(arithmetic, p)
