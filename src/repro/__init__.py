"""repro: bit-level dependence analysis and architecture design.

A from-scratch reproduction of

    Weijia Shang and Benjamin W. Wah,
    "Dependence Analysis and Architecture Design for Bit-Level Algorithms",
    Proc. Int'l Conf. on Parallel Processing (ICPP), 1993.

The library derives dependence structures of bit-level algorithms
*compositionally* (Theorem 3.1) -- from a word-level dependence structure,
an arithmetic algorithm's dependence structure, and an algorithm expansion --
instead of running general (exponential) dependence analysis on the expanded
program; and it designs/validates bit-level systolic architectures with the
linear space-time mapping machinery of Definition 4.1.

Quickstart::

    from repro import matmul_bit_level, designs, check_feasibility
    from repro.machine import BitLevelMatmulMachine

    alg = matmul_bit_level(u=4, p=8)           # eq. (3.12)/(3.13)
    T = designs.fig4_mapping(p=8)              # eq. (4.2), time optimal
    report = check_feasibility(T, alg, {"u": 4, "p": 8},
                               primitives=designs.fig4_primitives(8))
    assert report.feasible
    machine = BitLevelMatmulMachine(4, 8, T)
    run = machine.run(X, Y)                    # bit-exact Z = X·Y

Subpackages
-----------
``repro.structures``   index sets, conditions, dependence matrices
``repro.ir``           loop-nest IR, the paper's programs, bit-level expander
``repro.depanalysis``  general dependence analysis (the costly baseline)
``repro.symbolic``     parametric (closed-form) dependence analysis
``repro.arith``        add-shift / carry-save / ripple-carry arithmetic
``repro.expansion``    Expansions I/II, Theorem 3.1, verification, semantics
``repro.mapping``      Definition 4.1 machinery and the paper's designs
``repro.machine``      systolic-array simulators (bit-level and word-level)
``repro.experiments``  harnesses regenerating every figure of the paper
``repro.verify``       differential verification (randomized oracles)
``repro.cache``        persistent content-addressed artifact cache
``repro.obs``          observability: metrics, spans, exporters
``repro.serve``        async job server, thin client, unified JobSpec API
"""

from repro.structures import (
    Algorithm,
    DependenceMatrix,
    DependenceVector,
    IndexSet,
)
from repro.depanalysis import AnalysisConfig, analyze
from repro.expansion import (
    BitLevelEvaluator,
    bit_level_structure,
    matmul_bit_level,
    verify_theorem31,
)
from repro.mapping import (
    MappingMatrix,
    check_feasibility,
    designs,
    execution_time,
    find_optimal_schedule,
    processor_count,
)
from repro.verify import VerifyConfig, VerifyReport
from repro.api import analyze_symbolic, search_designs, simulate, verify_run

__version__ = "1.0.0"

__all__ = [
    "Algorithm",
    "DependenceMatrix",
    "DependenceVector",
    "IndexSet",
    "AnalysisConfig",
    "analyze",
    "analyze_symbolic",
    "BitLevelEvaluator",
    "bit_level_structure",
    "matmul_bit_level",
    "verify_theorem31",
    "MappingMatrix",
    "check_feasibility",
    "designs",
    "execution_time",
    "find_optimal_schedule",
    "processor_count",
    "VerifyConfig",
    "VerifyReport",
    "search_designs",
    "simulate",
    "verify_run",
    "__version__",
]
