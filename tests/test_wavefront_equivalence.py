"""Differential equivalence suite: wavefront execution vs pointwise.

The paper's machine fires every index point of a hyperplane
``Pi j = t`` -- one wavefront -- in a single beat.  The ``compiled``
backend executes a design wavefront by wavefront (one slot per ``t``,
either as a compiled program or through its generic per-point path);
the ``pointwise`` oracle fires one point at a time.  Batching is only a
speedup if it is *undetectable*: same product, same
:class:`~repro.machine.simulator.SimulationResult`, same store contents,
same ``machine.*`` metric values, same PE firings.  This module pins that
down across

* the bit-level matmul machine (both designs x both expansions, with and
  without the compiled slot program);
* every registered arithmetic structure, each exercised on the machine
  path that executes it;
* the generic model-(3.5) machine;
* >= 20 seeded random feasible mappings drawn from
  :mod:`repro.verify.generator`.
"""

from __future__ import annotations

import pytest

from repro.arith.registry import list_structures
from repro.compile.runner import clear_program_memo
from repro.machine.simulator import BACKENDS
from tests.conftest import random_matrix, reference_matmul
from tests.equivalence import (
    N_RANDOM_MAPPINGS,
    assert_arithmetic_equivalent,
    assert_runs_match,
    bitlevel_run,
    design_mapping,
    feasible_cases,
    generic_run,
    install_capture,
    model_machine_run,
    use_generic_path,
)


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    """Every case starts cache-off with an empty program memo."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    clear_program_memo()


@pytest.fixture
def capture(monkeypatch):
    return install_capture(monkeypatch)


# ---------------------------------------------------------------------------
# Bit-level matmul machine: designs x expansions (wavefront vs reference)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("design", ["fig4", "fig5"])
@pytest.mark.parametrize("expansion", ["I", "II"])
def test_bitlevel_machine_equivalence(design, expansion, capture, rng):
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = design_mapping(design, p)
    outs, runs = {}, {}
    for backend in BACKENDS:
        outs[backend], runs[backend] = bitlevel_run(
            u, p, mapping, expansion, backend, x, y, capture
        )
    mask = (1 << (2 * p - 1)) - 1
    assert outs["pointwise"].product == outs["compiled"].product
    assert outs["compiled"].product == reference_matmul(x, y, mask)
    assert_runs_match(
        runs["pointwise"], runs["compiled"], f"bitlevel {design}/exp {expansion}"
    )


def test_bitlevel_kernel_and_shim_agree(capture, monkeypatch, rng):
    """Same backend, kernel dropped (``kernel=None``): the generic
    per-point path must reproduce the compiled program's run on fig5 /
    expansion I, store and firings included."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = design_mapping("fig5", p)
    out_kernel, run_kernel = bitlevel_run(
        u, p, mapping, "I", "compiled", x, y, capture
    )
    use_generic_path(monkeypatch)
    out_shim, run_shim = bitlevel_run(
        u, p, mapping, "I", "compiled", x, y, capture
    )
    assert out_kernel.product == out_shim.product
    assert_runs_match(run_kernel, run_shim, "fig5/exp I program vs generic")


# ---------------------------------------------------------------------------
# Every registered arithmetic structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arith", list_structures())
def test_registered_arithmetic_equivalence(arith):
    assert_arithmetic_equivalent(arith, BACKENDS, seed=0xA1)


# ---------------------------------------------------------------------------
# Generic model-(3.5) machine (convolution mapping -> generic path)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expansion", ["I", "II"])
def test_model_machine_equivalence(expansion, rng):
    state = rng.getstate()
    runs = {}
    for backend in BACKENDS:
        rng.setstate(state)  # same operands on every backend
        runs[backend] = model_machine_run(backend, expansion, rng)
    (out_pw, (sim_pw, m_pw)), (out_c, (sim_c, m_c)) = (
        runs["pointwise"], runs["compiled"]
    )
    assert out_pw == out_c
    assert sim_pw == sim_c
    assert m_pw["counters"] == m_c["counters"]
    assert m_pw["gauges"] == m_c["gauges"]


# ---------------------------------------------------------------------------
# Random feasible mappings from the verification generator
# ---------------------------------------------------------------------------

def test_random_feasible_mappings_equivalent():
    for case, alg, binding, t in feasible_cases(seed=42):
        runs = {
            backend: generic_run(alg, binding, t, backend)
            for backend in BACKENDS
        }
        assert_runs_match(
            runs["pointwise"], runs["compiled"], f"{case.kind} mapping {t.rows}"
        )


def test_random_mapping_count_is_at_least_twenty():
    """Guard: the suite's random sweep keeps covering >= 20 mappings."""
    assert N_RANDOM_MAPPINGS >= 20
