"""Differential verification: randomized oracles for the paper's claims.

The subsystem cross-checks the repository's three load-bearing components
against independent implementations on randomized inputs:

* :mod:`repro.verify.oracle_theorem31` -- the O(1) compositional bit-level
  dependence structure (Theorem 3.1) vs. brute-force dependence analysis
  of the expanded program;
* :mod:`repro.verify.oracle_analysis` -- the default exact-analysis route
  (the symbolic closed form, instantiated) vs. the scalar reference:
  identical ordered instances on randomized programs;
* :mod:`repro.verify.oracle_symbolic` -- the parametric (closed-form)
  analyzer instantiated at randomized and adversarial concrete sizes vs.
  the concrete analyzer on the same program;
* :mod:`repro.verify.oracle_mapping` -- Definition 4.1 feasibility verdicts
  vs. exhaustive per-condition rechecking on the concrete index set;
* :mod:`repro.verify.oracle_simulator` -- bit-level machine executions vs.
  word-level reference products (signed and Baugh-Wooley paths included);
* :mod:`repro.verify.oracle_search` -- the branch-and-prune search solver
  vs. the exhaustive catalog search: identical feasible sets and rankings
  on randomized instances.

Entry points: ``python -m repro verify`` on the command line,
:func:`run_verification` / :func:`run_mutation_check` programmatically.
See ``docs/VERIFY.md``.
"""

from repro.verify.generator import (
    EDGE_SIZES,
    AnalysisCase,
    MappingCase,
    SearchCase,
    SimulatorCase,
    SizeEnvelope,
    SymbolicCase,
    Theorem31Case,
    gen_analysis_case,
    gen_mapping_case,
    gen_search_case,
    gen_simulator_case,
    gen_symbolic_case,
    gen_theorem31_case,
)
from repro.verify.report import Counterexample, OracleOutcome, VerifyReport
from repro.verify.runner import (
    MUTATIONS,
    ORACLES,
    Mutation,
    VerifyConfig,
    run_mutation_check,
    run_verification,
)
from repro.verify.shrink import shrink

__all__ = [
    "EDGE_SIZES",
    "SizeEnvelope",
    "Theorem31Case",
    "AnalysisCase",
    "MappingCase",
    "SearchCase",
    "SimulatorCase",
    "SymbolicCase",
    "gen_theorem31_case",
    "gen_analysis_case",
    "gen_mapping_case",
    "gen_search_case",
    "gen_simulator_case",
    "gen_symbolic_case",
    "Counterexample",
    "OracleOutcome",
    "VerifyReport",
    "MUTATIONS",
    "ORACLES",
    "Mutation",
    "VerifyConfig",
    "run_verification",
    "run_mutation_check",
    "shrink",
]
