"""Machine-checking Theorem 3.1 against general dependence analysis.

The paper omits the proof of Theorem 3.1 (it lives in technical report [7]).
This module substitutes executable verification: for a concrete word-level
algorithm, word length and expansion, it

1. assembles the bit-level structure *compositionally* via
   :func:`repro.expansion.theorem31.bit_level_structure` (constant work), and
2. generates the *explicit* bit-level program via
   :func:`repro.ir.expand.expand_bit_level` and runs the general dependence
   analyzer of :mod:`repro.depanalysis` over it (exponential work),

then compares the two *extensionally*: at every bit-level index point, the
set of dependence vectors whose source also lies inside the index set must
be identical.  Extensional comparison sidesteps representation differences
(symbolic conditions vs. enumerated point sets) and is exactly the
correctness statement that matters for scheduling and mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.depanalysis.analyzer import analyze
from repro.expansion.theorem31 import bit_level_structure
from repro.ir.builders import word_model_structure
from repro.ir.expand import expand_bit_level
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding

__all__ = ["VerificationReport", "verify_theorem31", "effective_edges"]


@dataclass
class VerificationReport:
    """Outcome of one Theorem 3.1 cross-validation."""

    matches: bool
    #: edges predicted by the compositional structure but absent from analysis
    missing_from_analysis: list = field(default_factory=list)
    #: edges found by analysis but not predicted compositionally
    extra_in_analysis: list = field(default_factory=list)
    #: distinct vectors per side
    compositional_vectors: list = field(default_factory=list)
    analysis_vectors: list = field(default_factory=list)
    #: analyzer statistics (cost accounting)
    analysis_stats: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable result."""
        if self.matches:
            return (
                f"MATCH: {len(self.compositional_vectors)} dependence vectors, "
                "identical effective edges"
            )
        return (
            f"MISMATCH: {len(self.missing_from_analysis)} predicted-only, "
            f"{len(self.extra_in_analysis)} analysis-only edges"
        )


def effective_edges(
    algorithm: Algorithm, binding: ParamBinding
) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ``(sink, vector)`` pairs with a valid vector whose source is inside
    the index set -- the extensional content of a dependence structure.

    When the index set is a plain box, each dependence vector is resolved
    over the whole point block at once (validity via
    :func:`repro.depanalysis.engine.condition_mask`, source membership via
    array comparisons), which is what lets Theorem 3.1 cross-validation
    scale to ``u = p = 16``.  A subclassed index set (e.g. a constrained
    one) falls back to the per-point loop.
    """
    from repro.depanalysis import engine as _engine
    from repro.structures.indexset import IndexSet

    index_set = algorithm.index_set
    out: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    if type(index_set) is IndexSet:
        import numpy as np

        bounds = index_set.bounds(binding)
        if (
            index_set.dim > 0
            and index_set.size(binding) <= 1 << 23
            and (not bounds
                 or max(max(abs(lo), abs(hi)) for lo, hi in bounds) < 1 << 62)
        ):
            pts = _engine.box_lattice(bounds)
            lo = np.asarray([b[0] for b in bounds], dtype=np.int64)
            hi = np.asarray([b[1] for b in bounds], dtype=np.int64)
            for vec in algorithm.dependences:
                d = np.asarray(
                    [int(x) for x in vec.vector], dtype=np.int64
                )
                src = pts - d
                mask = np.all((src >= lo) & (src <= hi), axis=1)
                mask &= _engine.condition_mask(vec.validity, pts, binding)
                vtuple = tuple(int(x) for x in vec.vector)
                for row in pts[mask]:
                    out.add((tuple(int(x) for x in row), vtuple))
            return out
    for point in index_set.points(binding):
        for vec in algorithm.dependences.valid_vectors_at(point, binding):
            src = tuple(x - d for x, d in zip(point, vec.vector))
            if index_set.contains(src, binding):
                out.add((point, vec.vector))
    return out


def verify_theorem31(
    h1: Sequence[int],
    h2: Sequence[int],
    h3: Sequence[int],
    lowers: Sequence[int],
    uppers: Sequence[int],
    p: int,
    expansion: str = "II",
    method: str = "enumerate",
    config=None,
) -> VerificationReport:
    """Cross-validate Theorem 3.1 for one concrete model (3.5) instance.

    Parameters
    ----------
    h1, h2, h3, lowers, uppers:
        The word-level model; bounds must be concrete integers here.
    p:
        Concrete word length.
    expansion:
        ``"I"`` or ``"II"``.
    method:
        Which analyzer backend to run on the explicit program
        (``"enumerate"`` or ``"exact"``).
    config:
        Optional :class:`repro.depanalysis.engine.AnalysisConfig` for the
        analysis leg (engine backend + persistent-cache policy).
    """
    word = word_model_structure(h1, h2, h3, lowers, uppers)
    compositional = bit_level_structure(word, "add-shift", expansion, p)
    binding: dict[str, int] = {"p": p}
    predicted = effective_edges(compositional, binding)

    program = expand_bit_level(h1, h2, h3, lowers, uppers, p, expansion)
    result = analyze(program, binding, method=method, config=config)
    observed = {(inst.sink, inst.vector) for inst in result.instances}

    missing = sorted(predicted - observed)
    extra = sorted(observed - predicted)
    return VerificationReport(
        matches=not missing and not extra,
        missing_from_analysis=missing,
        extra_in_analysis=extra,
        compositional_vectors=sorted(
            {v.vector for v in compositional.dependences}
        ),
        analysis_vectors=result.distinct_vectors(),
        analysis_stats=result.stats,
    )
