"""General dependence analysis for nested-loop programs.

This package implements the classical machinery the paper uses as its
baseline ("general dependence analysis methods ... generally involve finding
all integer solutions of a set of linear Diophantine equations, followed by a
verification to see if the integer solutions are inside the index set"):

* :mod:`repro.depanalysis.gcdtest` -- the GCD screening test;
* :mod:`repro.depanalysis.banerjee` -- Banerjee's inequality (real-valued
  bounds) screening test;
* :mod:`repro.depanalysis.diophantine` -- integer solution lattices of
  subscript systems plus bounded lattice enumeration;
* :mod:`repro.depanalysis.exact` -- the exact analyzer: Diophantine solve,
  then in-index-set verification (exponential in the loop depth, as the
  paper notes);
* :mod:`repro.depanalysis.analyzer` -- the public entry point
  :func:`~repro.depanalysis.analyzer.analyze`, including a fast
  hash-join oracle (``method="enumerate"``) used to cross-check the exact
  analyzer and to validate Theorem 3.1 on concrete instances;
* :mod:`repro.depanalysis.engine` -- route selection and the persistent
  artifact cache (see :mod:`repro.cache` and ``docs/ANALYSIS.md``):
  exact analysis runs either the scalar analyzer above (``scalar``, the
  reference) or the symbolic closed form of :mod:`repro.symbolic`
  instantiated at the binding (``symbolic``, the default), which falls
  back to the scalar analyzer on programs outside its support.  Both
  routes return the same ordered instance list.
"""

from repro.depanalysis.pairs import AnalysisResult, DependenceInstance, PointSet
from repro.depanalysis.gcdtest import gcd_test
from repro.depanalysis.banerjee import banerjee_test
from repro.depanalysis.analyzer import analyze
from repro.depanalysis.engine import (
    AnalysisConfig,
    BACKENDS,
    resolve_backend,
    run_analysis,
)

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "BACKENDS",
    "DependenceInstance",
    "PointSet",
    "analyze",
    "banerjee_test",
    "gcd_test",
    "resolve_backend",
    "run_analysis",
]
