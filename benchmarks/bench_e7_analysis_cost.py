"""E7 benchmarks -- the paper's motivation, measured.

Benchmarks the exact general dependence analysis of the expanded bit-level
matmul program against Theorem 3.1's composition, across sizes; this is the
headline "without using time consuming general dependence analysis" claim.
The general analysis is the scalar Diophantine analyzer, pinned with
``backend="scalar"`` as in the E7 harness.
"""

import pytest

from repro.depanalysis import AnalysisConfig, analyze
from repro.expansion.theorem31 import matmul_bit_level
from repro.experiments import e7_analysis_cost
from repro.ir.expand import expand_bit_level

MATMUL_H = ([0, 1, 0], [1, 0, 0], [0, 0, 1])
SCALAR = AnalysisConfig(backend="scalar", cache=False)


@pytest.fixture(scope="module", autouse=True)
def report(report_writer):
    yield
    data = e7_analysis_cost.run()
    report_writer("E7-analysis-cost", e7_analysis_cost.report(data), data=data)


@pytest.mark.parametrize("u,p", [(2, 2), (3, 2), (3, 3)])
def test_bench_general_analysis(benchmark, u, p):
    h1, h2, h3 = MATMUL_H
    prog = expand_bit_level(h1, h2, h3, [1, 1, 1], [u, u, u], p, "II")
    result = benchmark(analyze, prog, {"p": p}, "exact", True, SCALAR)
    assert result.instances


@pytest.mark.parametrize("u,p", [(2, 2), (3, 3), (64, 32)])
def test_bench_theorem31_composition(benchmark, u, p):
    alg = benchmark(matmul_bit_level, u, p, "II")
    assert len(alg.dependences) == 7


def test_bench_enumerate_analysis(benchmark):
    h1, h2, h3 = MATMUL_H
    prog = expand_bit_level(h1, h2, h3, [1, 1, 1], [3, 3, 3], 3, "II")
    result = benchmark(analyze, prog, {"p": 3}, "enumerate")
    assert result.instances
