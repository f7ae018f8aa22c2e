"""Experiment harnesses: one module per reproduced figure/result.

Each module exposes ``run(...)`` returning structured data and
``report(...)`` rendering the paper-vs-measured rows recorded in
EXPERIMENTS.md:

=====  ===============================================  =======================
id     paper artifact                                   module
=====  ===============================================  =======================
E1     Fig. 1 / eqs. (3.1)-(3.4): add-shift             ``e1_addshift``
E2     Fig. 3 / eqs. (3.8)-(3.9): expansions I & II     ``e2_expansions``
E3     Example 3.1 / eqs. (3.12)-(3.13): matmul         ``e3_matmul_structure``
E4     Thm. 4.5 / Fig. 4 / eqs. (4.2)-(4.5)             ``e4_fig4``
E5     Fig. 5 / eqs. (4.6)-(4.8)                        ``e5_fig5``
E6     Section 4.2 speedup claims                       ``e6_speedup``
E7     Section 1/3: analysis cost                       ``e7_analysis_cost``
E8     Section 2 / eqs. (2.2)-(2.4)                     ``e8_wordlevel``
E9     Thm. 4.5 / eq. (4.5): free-schedule lower bound  ``e9_bounds``
E10    Definition 4.1 design search vs Fig. 4           ``e10_search``
=====  ===============================================  =======================
"""

from repro.experiments import (
    e1_addshift,
    e2_expansions,
    e3_matmul_structure,
    e4_fig4,
    e5_fig5,
    e6_speedup,
    e7_analysis_cost,
    e8_wordlevel,
    e9_bounds,
    e10_search,
)
from repro.experiments.tables import format_table

__all__ = [
    "e1_addshift",
    "e2_expansions",
    "e3_matmul_structure",
    "e4_fig4",
    "e5_fig5",
    "e6_speedup",
    "e7_analysis_cost",
    "e8_wordlevel",
    "e9_bounds",
    "e10_search",
    "format_table",
]
