"""The end-to-end design pipeline of the paper, as one object.

The paper's introduction describes a three-step method: *expand* a
word-level algorithm to the bit level, *analyze* its dependences, and *map*
it onto a bit-level processor array.  :class:`BitLevelDesigner` packages
that method -- with the paper's shortcut (Theorem 3.1) in the analysis
step, optional machine-checking against general analysis, design-space
search in the mapping step, and a functional machine for the result:

>>> designer = BitLevelDesigner(h1=[0,1,0], h2=[1,0,0], h3=[0,0,1],
...                             lowers=[1,1,1], uppers=[4,4,4], p=4)
>>> designer.structure()              # Theorem 3.1, symbolic-capable
>>> designer.validate()               # vs general analysis (optional, slow)
>>> best = designer.design()          # search mappings, best first
>>> run = designer.build_machine(best.mapping).run(x_words, y_words)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.depanalysis.engine import AnalysisConfig
from repro.expansion.expansions import Expansion, get_expansion
from repro.expansion.theorem31 import bit_level_from_vectors
from repro.expansion.verify import VerificationReport, verify_theorem31
from repro.machine.model import BitLevelModelMachine
from repro.mapping.engine import DesignCandidate, SearchConfig, run_search
from repro.mapping.feasibility import FeasibilityReport, check_feasibility
from repro.mapping.interconnect import with_long_wires
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm

__all__ = ["BitLevelDesigner"]


@dataclass
class BitLevelDesigner:
    """Configure once; derive, validate, design, and build.

    Parameters mirror the word-level model (3.5): the three dependence
    vectors, the (concrete) index-set bounds, the word length, the
    arithmetic algorithm and the expansion.
    """

    h1: Sequence[int]
    h2: Sequence[int]
    h3: Sequence[int]
    lowers: Sequence[int]
    uppers: Sequence[int]
    p: int
    arithmetic: str = "add-shift"
    expansion: str | Expansion = "II"
    #: engine backend + persistent-cache policy for :meth:`validate`
    analysis: AnalysisConfig | None = None
    _structure: Algorithm | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.expansion = get_expansion(self.expansion)
        n = len(self.h1)
        if not (len(self.h2) == len(self.h3) == len(self.lowers)
                == len(self.uppers) == n):
            raise ValueError("model vectors and bounds must share a dimension")

    # -- step 1+2: expansion & dependence analysis (the fast way) ---------
    def structure(self) -> Algorithm:
        """The bit-level dependence structure, via Theorem 3.1 (memoized
        on this designer)."""
        if self._structure is None:
            self._structure = bit_level_from_vectors(
                self.h1, self.h2, self.h3, self.lowers, self.uppers,
                self.p, self.expansion.key, self.arithmetic,
            )
        return self._structure

    @property
    def binding(self) -> dict[str, int]:
        """Parameter binding for the (concrete) instance."""
        return {"p": self.p}

    def validate(self, method: str = "enumerate") -> VerificationReport:
        """Machine-check the structure against general dependence analysis.

        Exponential in the instance size -- intended for small sanity sizes,
        exactly like the paper's own motivation says.
        """
        return verify_theorem31(
            list(self.h1), list(self.h2), list(self.h3),
            list(self.lowers), list(self.uppers),
            self.p, self.expansion.key, method=method,
            config=self.analysis,
        )

    # -- step 3: mapping ----------------------------------------------------
    def default_primitives(self, dim: int = 2) -> list[list[int]]:
        """The interconnect of a ``dim``-D array: at ``dim = 2`` mesh +
        diagonal + length-``p`` wires (a Fig. 4-shaped target), otherwise
        the mesh plus a length-``p`` wire along each axis."""
        if dim == 2:
            return with_long_wires([[1, -1], [self.p, 0], [0, self.p]], 2)
        wires = [[self.p if r == axis else 0 for r in range(dim)]
                 for axis in range(dim)]
        return with_long_wires(wires, dim)

    def design(
        self,
        primitives: Sequence[Sequence[int]] | None = None,
        target_space_dim: int = 2,
        schedule_bound: int = 2,
        max_candidates: int = 5,
    ) -> DesignCandidate:
        """Search the design space; return the best feasible design.

        Raises ``RuntimeError`` when nothing feasible is found within the
        search bounds (widen ``schedule_bound`` or the primitive set).
        """
        if primitives is None:
            primitives = self.default_primitives(target_space_dim)
        config = SearchConfig(
            target_space_dim=target_space_dim,
            block_values=[self.p],
            schedule_bound=schedule_bound,
            max_candidates=max_candidates,
        )
        candidates = run_search(
            self.structure(), self.binding, primitives, config
        )
        if not candidates:
            raise RuntimeError(
                "no feasible design within the search bounds; widen "
                "schedule_bound or enrich the primitive set"
            )
        return candidates[0]

    def check(
        self,
        mapping: MappingMatrix,
        primitives: Sequence[Sequence[int]] | None = None,
    ) -> FeasibilityReport:
        """Check a user-supplied mapping against Definition 4.1."""
        if primitives is None:
            primitives = self.default_primitives(len(mapping.space))
        return check_feasibility(
            mapping, self.structure(), self.binding, primitives
        )

    # -- step 4: build ----------------------------------------------------------
    def build_machine(self, mapping: MappingMatrix) -> BitLevelModelMachine:
        """A functional bit-level machine for this model on ``mapping``."""
        return BitLevelModelMachine(
            self.h1, self.h2, self.h3, self.lowers, self.uppers,
            self.p, mapping, self.expansion.key,
        )
