"""Ablation: GCD/Banerjee screening inside the exact analyzer.

The classical screening tests never change the result (they are
conservative), but they prune Diophantine systems before the expensive
in-index-set verification.  This ablation measures the exact analyzer with
and without screening on the paper's programs and reports how many
write/read pairs each screen eliminates.  Screens exist only on the
scalar route, so every analysis here pins ``backend="scalar"``.
"""

import pytest

from repro.depanalysis import AnalysisConfig, analyze
from repro.experiments.tables import format_table
from repro.ir.builders import addshift_pipelined, matmul_pipelined
from repro.ir.expand import expand_bit_level

SCALAR = AnalysisConfig(backend="scalar", cache=False)

PROGRAMS = {
    "matmul-2.3 (u=4)": (matmul_pipelined(4), {"u": 4}),
    "add-shift-3.3 (p=5)": (addshift_pipelined(5), {"p": 5}),
    "bit-level expII (u=2,p=2)": (
        expand_bit_level([0, 1, 0], [1, 0, 0], [0, 0, 1],
                         [1, 1, 1], [2, 2, 2], 2, "II"),
        {"p": 2},
    ),
}


@pytest.fixture(scope="module", autouse=True)
def report(report_writer):
    yield
    rows = []
    for name, (prog, binding) in PROGRAMS.items():
        with_s = analyze(prog, binding, "exact", use_screens=True,
                         config=SCALAR)
        without = analyze(prog, binding, "exact", use_screens=False,
                          config=SCALAR)
        assert set(with_s.instances) == set(without.instances)
        rows.append(
            (
                name,
                with_s.stats["pairs_tested"],
                with_s.stats["gcd_pruned"],
                with_s.stats["banerjee_pruned"],
                with_s.stats["systems_solved"],
                without.stats["systems_solved"],
            )
        )
    text = format_table(
        ["program", "pairs", "gcd pruned", "banerjee pruned",
         "systems (screened)", "systems (bare)"],
        rows,
        title="Ablation: screening tests inside the exact analyzer",
    )
    report_writer("ablation-screens", text)


@pytest.mark.parametrize("use_screens", [True, False],
                         ids=["screened", "bare"])
def test_bench_exact_analyzer(benchmark, use_screens):
    prog, binding = PROGRAMS["bit-level expII (u=2,p=2)"]
    result = benchmark(analyze, prog, binding, "exact", use_screens, SCALAR)
    assert result.instances
