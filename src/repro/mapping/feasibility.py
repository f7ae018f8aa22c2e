"""The five feasibility conditions of Definition 4.1, checked exactly.

1. ``Π D > 0̄`` -- the schedule respects every dependence.
2. ``S·D = P·K`` with ``Σ_j k_ji <= Π d̄_i`` -- every dependence
   displacement is realizable on the target interconnect before the datum is
   needed (condition (4.1)); slack becomes link buffers.
3. ``τ`` injective on ``J`` -- no two computations share a processor-time
   slot.
4. ``rank(T) = k`` -- the design genuinely uses ``k-1`` space dimensions.
5. The entries of ``T`` are relatively prime -- no globally idle beat.

:func:`check_feasibility` evaluates the conditions on a concrete instance
*cheapest first* -- rank (4), coprimality (5), schedule (1), interconnect
(2), conflicts (3) -- and stops at the first failure, so the exponential
conflict enumeration only runs for candidates that already pass everything
else.  Conditions skipped by the short circuit are reported as ``None``
("not checked"); pass ``full_report=True`` to evaluate all five regardless
of failures (diagnostics, error messages).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.mapping.conflicts import find_conflicts
from repro.mapping.interconnect import (
    InterconnectSolution,
    check_primitive_rows,
    solve_interconnect,
)
from repro.mapping.memo import EvalCache
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.params import ParamBinding

__all__ = ["FeasibilityReport", "check_feasibility"]

#: Cap on conflict witnesses recorded in a report (diagnostic payload only;
#: feasibility needs a single witness to fail a candidate).
_CONFLICT_WITNESSES = 5


@dataclass
class FeasibilityReport:
    """Outcome of the five-condition feasibility check.

    Each flag is ``True`` (holds), ``False`` (violated) or ``None`` (not
    checked -- a cheaper condition already failed and the check
    short-circuited).
    """

    schedule_valid: bool | None  # condition 1
    interconnect: InterconnectSolution | None  # condition 2 (None = untested)
    interconnect_ok: bool | None
    conflict_free: bool | None  # condition 3
    conflicts: list = field(default_factory=list)
    rank_ok: bool | None = False  # condition 4
    coprime_ok: bool | None = False  # condition 5

    @property
    def feasible(self) -> bool:
        """All five conditions checked and holding."""
        return bool(
            self.schedule_valid
            and self.interconnect_ok
            and self.conflict_free
            and self.rank_ok
            and self.coprime_ok
        )

    def summary(self) -> str:
        """One-line pass/fail/skip breakdown."""
        flags = [
            ("ΠD>0", self.schedule_valid),
            ("SD=PK", self.interconnect_ok),
            ("no-conflict", self.conflict_free),
            ("rank", self.rank_ok),
            ("coprime", self.coprime_ok),
        ]
        word = {True: "ok", False: "FAIL", None: "skipped"}
        return ", ".join(f"{name}:{word[ok]}" for name, ok in flags)

    def failed_conditions(self) -> list[str]:
        """Names of the conditions that were checked and did not hold."""
        out = []
        if self.schedule_valid is False:
            out.append("schedule")
        if self.interconnect_ok is False:
            out.append("interconnect")
        if self.conflict_free is False:
            out.append("conflict")
        if self.rank_ok is False:
            out.append("rank")
        if self.coprime_ok is False:
            out.append("coprime")
        return out


def check_feasibility(
    t: MappingMatrix,
    algorithm: Algorithm,
    binding: ParamBinding,
    primitives: Sequence[Sequence[int]] | None = None,
    *,
    full_report: bool = False,
    cache: EvalCache | None = None,
) -> FeasibilityReport:
    """Check Definition 4.1 for a mapping on a concrete algorithm instance.

    Parameters
    ----------
    t:
        The mapping matrix ``T = [S; Π]``.
    algorithm:
        The algorithm ``(J, D, E)``; validity conditions on dependence
        vectors do not weaken the check (a vector valid anywhere must be
        respected by the schedule everywhere it applies, and the paper's
        conditions are all checked against the full ``D``).
    binding:
        Parameter values instantiating ``J``.
    primitives:
        Interconnection primitive matrix ``P``; when omitted, condition 2 is
        recorded as trivially satisfied (unconstrained target).  A ``P`` whose row
        count differs from the space dimension raises ``ValueError``.
    full_report:
        Evaluate all five conditions even after a failure.  The default
        stops at the first violated condition (cheapest-first order: rank,
        coprime, schedule, interconnect, conflicts) and reports the
        unchecked ones as ``None``.
    cache:
        Optional :class:`~repro.mapping.memo.EvalCache` memoizing the
        conflict enumeration and per-column interconnect solves across
        calls (the design-space search engine passes one per run).
    """
    n = algorithm.dim
    if t.n != n:
        raise ValueError(
            f"mapping width {t.n} does not match algorithm dimension {n}"
        )
    if primitives is not None:
        check_primitive_rows(primitives, t.k - 1)
    reg = obs.get_registry()
    t0 = time.perf_counter() if reg is not None else 0.0

    schedule_valid: bool | None = None
    interconnect: InterconnectSolution | None = None
    interconnect_ok: bool | None = None
    conflict_free: bool | None = None
    conflicts: list = []

    # Condition 4: rank (a handful of row reductions on a k x n matrix).
    rank_ok = t.rank() == t.k
    proceed = full_report or rank_ok

    # Condition 5: coprimality (one gcd sweep over the entries).
    coprime_ok: bool | None = None
    if proceed:
        coprime_ok = t.entries_coprime()
        proceed = full_report or coprime_ok

    # Condition 1: Π D > 0 (m dot products).
    if proceed:
        schedule = t.schedule
        schedule_valid = all(
            sum(c * d for c, d in zip(schedule, vec.vector)) > 0
            for vec in algorithm.dependences
        )
        proceed = full_report or schedule_valid

    # Condition 2: S·D = P·K under the arrival deadline (bounded DFS per
    # dependence column; memoized per (P, S d̄_i) when cached, one answer
    # serving every deadline it covers).
    if proceed:
        if primitives is not None:
            d_cols = algorithm.dependences.columns()
            d_matrix = [[col[row] for col in d_cols] for row in range(n)]
            interconnect = solve_interconnect(
                t.space, d_matrix, t.schedule, primitives, cache=cache
            )
            interconnect_ok = interconnect is not None
        else:
            interconnect_ok = True
        proceed = full_report or interconnect_ok

    # Condition 3: conflict-freedom (the exponential check, last).
    if proceed:
        conflicts = find_conflicts(
            t, algorithm.index_set, binding,
            limit=_CONFLICT_WITNESSES, cache=cache,
        )
        conflict_free = not conflicts
        if reg is not None:
            reg.count("mapping.conflict_checks")

    report = FeasibilityReport(
        schedule_valid=schedule_valid,
        interconnect=interconnect,
        interconnect_ok=interconnect_ok,
        conflict_free=conflict_free,
        conflicts=conflicts,
        rank_ok=rank_ok,
        coprime_ok=coprime_ok,
    )
    if reg is not None:
        reg.count("mapping.candidates_enumerated")
        # 0-increments materialize both keys, so every metrics export has
        # the enumerated/pruned pair even for all-feasible runs.
        reg.count("mapping.feasible", int(report.feasible))
        reg.count("mapping.pruned", int(not report.feasible))
        for cond in report.failed_conditions():
            reg.count(f"mapping.pruned.{cond}")
        reg.observe("mapping.feasibility_seconds", time.perf_counter() - t0)
    return report
