"""The budgeted oracle loop and the self-test mutation checks.

:func:`run_verification` drives the three oracles over seeded random
cases, shrinks any failure greedily, and returns a
:class:`~repro.verify.report.VerifyReport`.  When an ambient
:mod:`repro.obs` registry is installed, each oracle runs inside a
``verify.<name>`` span and emits ``verify.<name>.cases`` /
``.failures`` / ``.shrink_steps`` counters.

:func:`run_mutation_check` answers "would this subsystem actually catch a
bug?": it monkeypatches one seeded bug of the :data:`MUTATIONS` table
into its seam -- a wrong validity condition in the Theorem 3.1 assembly,
a symbolic-solver bug, or an unsound search cut or conflict screen --
and demands that the entry's oracle produce a shrunken counterexample
against the mutant.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from repro import obs
from repro.verify import (
    oracle_analysis,
    oracle_mapping,
    oracle_search,
    oracle_simulator,
    oracle_symbolic,
    oracle_theorem31,
)
from repro.verify.generator import SizeEnvelope
from repro.verify.report import Counterexample, OracleOutcome, VerifyReport
from repro.verify.shrink import shrink

__all__ = [
    "MUTATIONS",
    "ORACLES",
    "Mutation",
    "VerifyConfig",
    "run_verification",
    "run_mutation_check",
]

#: name -> oracle module (each exports NAME, generate, check)
ORACLES = {
    module.NAME: module
    for module in (
        oracle_theorem31, oracle_analysis, oracle_symbolic,
        oracle_mapping, oracle_simulator, oracle_search,
    )
}


@dataclass(frozen=True)
class VerifyConfig:
    """One verification run's knobs."""

    seed: int = 0
    #: cases per oracle
    cases: int = 50
    #: wall-clock budget per oracle in seconds (None = unbounded)
    budget_s: float | None = None
    #: which oracles to run, in order
    oracles: Sequence[str] = (
        "theorem31", "analysis", "symbolic", "mapping", "simulator",
        "search",
    )
    envelope: SizeEnvelope = field(default_factory=SizeEnvelope)
    max_shrink_steps: int = 200
    #: stop an oracle after this many counterexamples (they are near-certainly
    #: the same root cause; keep reports small)
    max_counterexamples: int = 3


def _fails(check: Callable) -> Callable:
    return lambda case: check(case) is not None


def _run_oracle(
    module, config: VerifyConfig, outcome: OracleOutcome
) -> list[Counterexample]:
    # String seeds hash deterministically through random.Random (CPython
    # seeds str via a stable algorithm), so each oracle gets an independent
    # but reproducible stream for any (seed, oracle) pair.
    rng = random.Random(f"{config.seed}:{module.NAME}")
    started = time.monotonic()
    found: list[Counterexample] = []
    for _ in range(config.cases):
        if (
            config.budget_s is not None
            and time.monotonic() - started > config.budget_s
        ):
            outcome.budget_exhausted = True
            break
        case = module.generate(rng, config.envelope)
        outcome.cases_run += 1
        obs.count(f"verify.{module.NAME}.cases")
        detail = module.check(case)
        if detail is None:
            outcome.passed += 1
            continue
        outcome.failed += 1
        obs.count(f"verify.{module.NAME}.failures")
        small, steps = shrink(
            case, _fails(module.check), max_steps=config.max_shrink_steps
        )
        obs.count(f"verify.{module.NAME}.shrink_steps", steps)
        found.append(
            Counterexample(
                oracle=module.NAME,
                detail=module.check(small) or detail,
                case=small.to_dict(),
                original=case.to_dict(),
                shrink_steps=steps,
            )
        )
        if len(found) >= config.max_counterexamples:
            break
    obs.gauge(f"progress.verify.{module.NAME}", outcome.cases_run)
    outcome.elapsed_s = time.monotonic() - started
    return found


def run_verification(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the configured oracles; return the full report."""
    report = VerifyReport(seed=config.seed)
    for name in config.oracles:
        try:
            module = ORACLES[name]
        except KeyError:
            raise ValueError(
                f"unknown oracle {name!r}; choose from {sorted(ORACLES)}"
            ) from None
        outcome = OracleOutcome(oracle=name)
        with obs.span(f"verify.{name}"):
            report.counterexamples.extend(
                _run_oracle(module, config, outcome)
            )
        report.outcomes.append(outcome)
    return report


# ---------------------------------------------------------------------------
# Mutation check
# ---------------------------------------------------------------------------

def _mutant_cprime_everywhere(word, arith, expansion, p):
    """Seeded bug in the Theorem 3.1 assembly: the carry-completion
    column ``c'`` (``d̄₇``, validity ``i1 = p`` under Expansion II) is
    declared valid *everywhere*.

    This is the interesting mutation class: entry-column mutations
    (``d̄₄``/``d̄₅``) are extensionally invisible because the spurious edges
    they add have sources outside the index set, which
    :func:`repro.expansion.verify.effective_edges` filters anyway.  The
    ``c'`` source lands inside the set once ``p >= 3``, so the oracle must
    find -- and the shrinker must retain -- a ``p = 3`` witness.
    """
    from repro.expansion.theorem31 import bit_level_structure
    from repro.structures.algorithm import Algorithm
    from repro.structures.conditions import TRUE

    alg = bit_level_structure(word, arith, expansion, p)
    vectors = [
        v.with_validity(TRUE) if "c'" in v.causes else v
        for v in alg.dependences
    ]
    return Algorithm(
        alg.index_set, vectors, alg.computations, name=alg.name + "-mutant"
    )


def _mutant_congruence_quotient(expr, d):
    """Seeded bug: the divisibility check is dropped entirely -- every
    congruence ``d | c_i`` is declared satisfiable and floor-divided.

    Invisible on the matmul programs (identity subscripts make every
    invariant factor 1, so the quotient is exact), which is precisely why
    the generator's strided cases exist: a stride-``s`` read with an
    offset indivisible by ``s`` has *no* dependence at any size, while
    the mutant manufactures a spurious closed-form family.
    """
    from repro.structures.params import LinExpr

    return "ok", LinExpr(
        expr.const // d, {name: c // d for name, c in expr.coeffs}
    )


def _mutant_shifted_bounds(lo, hi, delta):
    """Seeded bug: the source-in-box window in sink coordinates is one too
    wide at the top, admitting one extra sink per constrained axis."""
    return lo + delta, hi + delta + 1


def _mutant_hop_budget(deadline: int) -> int:
    """Seeded bug: an *unsound* interconnect cut -- one hop less than the
    arrival deadline (4.1) actually permits.

    Designs whose dependences need exactly ``Π d̄_i`` hops (the paper's
    Fig. 4 family among them) get pruned before the conflict screen, so
    the solver's feasible set loses designs the catalog still finds: the
    differential oracle must report a missing design.
    """
    return deadline - 1


def _mutant_screen(walk, block):
    """Seeded bug: the solver's conflict screen finds no witness, as if
    every ``τ`` were injective -- each space's first open pair in the
    walk's schedule order passes.

    A candidate whose only violation is a ``τ`` collision now reaches the
    check that certifies the solver's designs, which rejects it, so the
    search raises instead of returning: the differential oracle must
    report the solver's error.
    """
    done = None
    for pair in block.walk_order(range(len(block.mappings)), walk.ranks):
        if block.space[pair] != done:
            done = block.space[pair]
            yield pair


class Mutation(NamedTuple):
    """One seeded bug: the oracle that must catch it, the seam the mutant
    replaces and the in-process memo that could hide it (each a ``(module
    path, attribute)`` pair; ``memo`` names a function that clears it,
    or is ``None``)."""

    oracle: str
    seam: tuple[str, str]
    mutant: Callable
    memo: tuple[str, str] | None = None


_SEARCH_PLANS = ("repro.mapping.solver", "clear_search_plans")
_SYMBOLIC_MEMO = ("repro.symbolic.analyze", "clear_memo")

#: mutation name -> the seeded bug :func:`run_mutation_check` runs
MUTATIONS = {
    "cprime-everywhere": Mutation(
        "theorem31", ("repro.expansion.verify", "bit_level_structure"),
        _mutant_cprime_everywhere,
    ),
    "dropped-congruence": Mutation(
        "symbolic", ("repro.symbolic.solve", "_congruence_quotient"),
        _mutant_congruence_quotient, _SYMBOLIC_MEMO,
    ),
    "shifted-bound": Mutation(
        "symbolic", ("repro.symbolic.families", "shifted_bounds"),
        _mutant_shifted_bounds, _SYMBOLIC_MEMO,
    ),
    "tight-deadline": Mutation(
        "search", ("repro.mapping.solver", "_hop_budget"),
        _mutant_hop_budget, _SEARCH_PLANS,
    ),
    "dropped-conflict-screen": Mutation(
        "search", ("repro.mapping.solver", "_screen"),
        _mutant_screen, _SEARCH_PLANS,
    ),
}


def _attribute(pair: tuple[str, str]):
    module, attr = pair
    return importlib.import_module(module), attr


def run_mutation_check(
    name: str,
    seed: int = 0,
    cases: int = 50,
    envelope: SizeEnvelope = SizeEnvelope(),
    max_shrink_steps: int = 200,
) -> Counterexample | None:
    """Self-test: patch the seeded bug ``name`` (an entry of
    :data:`MUTATIONS`) into its seam and confirm its oracle catches it.

    Returns the shrunken counterexample the oracle produced against the
    mutant (the *expected* outcome), or ``None`` if the mutant survived
    -- which means the verification subsystem has lost its teeth.  Counts
    ``verify.mutation.caught``.  The entry's memo, if any, is cleared on
    entry and exit, so neither a result built with the real seam hides
    the mutant nor a mutant result outlives it.
    """
    try:
        mutation = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; choose from {sorted(MUTATIONS)}"
        ) from None
    target, attr = _attribute(mutation.seam)
    real = getattr(target, attr)

    def clear_memo() -> None:
        if mutation.memo is not None:
            module, function = _attribute(mutation.memo)
            getattr(module, function)()

    setattr(target, attr, mutation.mutant)
    clear_memo()
    try:
        config = VerifyConfig(
            seed=seed,
            cases=cases,
            oracles=(mutation.oracle,),
            envelope=envelope,
            max_shrink_steps=max_shrink_steps,
            max_counterexamples=1,
        )
        report = run_verification(config)
        obs.count("verify.mutation.caught", int(bool(report.counterexamples)))
        return report.counterexamples[0] if report.counterexamples else None
    finally:
        setattr(target, attr, real)
        clear_memo()
