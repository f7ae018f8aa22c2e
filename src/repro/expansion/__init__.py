"""Bit-level algorithm expansion: the paper's core contribution.

* :mod:`repro.expansion.theorem31` -- the compositional construction of
  Theorem 3.1: the bit-level dependence structure ``(J, D_I)`` / ``(J,
  D_II)`` assembled directly from the word-level structure ``(J_w, D_w)``,
  the arithmetic structure ``(J_as, D_as)``, and the chosen expansion --
  in constant time, without general dependence analysis;
* :mod:`repro.expansion.expansions` -- descriptors of Expansion I
  (partial-sum forwarding) and Expansion II (final-sum injection);
* :mod:`repro.expansion.semantics` -- bit-exact functional evaluators of
  the expanded algorithms (used to validate that the expansions really
  compute the word-level result);
* :mod:`repro.expansion.verify` -- machine-checks Theorem 3.1 by comparing
  the compositional structure against general dependence analysis of the
  explicitly expanded program.
"""

from repro.expansion.expansions import EXPANSION_I, EXPANSION_II, Expansion
from repro.expansion.theorem31 import bit_level_structure, matmul_bit_level
from repro.expansion.semantics import BitLevelEvaluator
from repro.expansion.verify import VerificationReport, verify_theorem31

__all__ = [
    "EXPANSION_I",
    "EXPANSION_II",
    "Expansion",
    "bit_level_structure",
    "matmul_bit_level",
    "BitLevelEvaluator",
    "VerificationReport",
    "verify_theorem31",
]
