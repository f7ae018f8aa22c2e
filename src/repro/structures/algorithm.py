"""The algorithm triplet ``A = (J, D, E)``.

:class:`Algorithm` bundles an index set, a dependence matrix, and the set of
computations ``E`` performed per iteration.  For the purposes of space-time
mapping only ``(J, D)`` matter, but ``E`` is retained so the systolic-array
simulator can execute the algorithm functionally (each computation is a
Python callable over the local input bits/words).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.structures.dependence import DependenceMatrix, DependenceVector
from repro.structures.indexset import IndexSet

__all__ = ["ComputationSet", "Algorithm"]


class ComputationSet:
    """The computations ``E`` of an algorithm.

    Stored as a mapping from statement name to a human-readable description
    plus an optional executable semantic function.  The semantic function, when
    provided, has signature ``fn(point, inputs) -> outputs`` with ``inputs`` /
    ``outputs`` being dicts keyed by variable name; it is consumed by
    :mod:`repro.machine` for functional simulation.
    """

    __slots__ = ("statements", "semantics")

    def __init__(
        self,
        statements: Mapping[str, str] | Iterable[tuple[str, str]] = (),
        semantics: Callable[..., Mapping[str, int]] | None = None,
    ):
        self.statements: tuple[tuple[str, str], ...] = tuple(
            statements.items() if isinstance(statements, Mapping) else statements
        )
        self.semantics = semantics

    def names(self) -> list[str]:
        """Statement names in declaration order."""
        return [name for name, _ in self.statements]

    def __repr__(self) -> str:
        return "ComputationSet[" + "; ".join(f"{n}: {d}" for n, d in self.statements) + "]"


class Algorithm:
    """An algorithm characterized by the triplet ``(J, D, E)``.

    Parameters
    ----------
    index_set:
        The iteration space ``J``.
    dependences:
        The dependence matrix ``D`` (distinct dependence vectors with their
        validity subdomains).
    computations:
        The computation set ``E``; optional for purely structural work.
    name:
        Display name.
    """

    __slots__ = ("index_set", "dependences", "computations", "name")

    def __init__(
        self,
        index_set: IndexSet,
        dependences: DependenceMatrix | Iterable[DependenceVector],
        computations: ComputationSet | None = None,
        name: str = "algorithm",
    ):
        if not isinstance(dependences, DependenceMatrix):
            dependences = DependenceMatrix(dependences)
        if dependences.vectors and dependences.dim != index_set.dim:
            raise ValueError(
                f"dependence dimension {dependences.dim} does not match "
                f"index set dimension {index_set.dim}"
            )
        self.index_set = index_set
        self.dependences = dependences
        self.computations = computations or ComputationSet()
        self.name = name

    # -- paper terminology -------------------------------------------------
    @property
    def dim(self) -> int:
        """The algorithm dimension ``n`` (number of nested loops)."""
        return self.index_set.dim

    @property
    def is_uniform(self) -> bool:
        """True for a *uniform dependence algorithm* (all vectors uniform)."""
        return self.dependences.is_uniform

    def __repr__(self) -> str:
        kind = "uniform" if self.is_uniform else "conditional"
        return (
            f"Algorithm({self.name!r}, dim={self.dim}, "
            f"{len(self.dependences)} {kind} dependence vectors)"
        )
