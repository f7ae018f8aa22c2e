"""Differential equivalence suite: wavefront execution vs pointwise.

The paper's machine fires every index point of a hyperplane
``Pi j = t`` -- one wavefront -- in a single beat.  The ``compiled``
backend executes a design wavefront by wavefront (one slot per ``t``);
the ``pointwise`` oracle fires one point at a time.  Batching is only a
speedup if it is *undetectable*: same product, same
:class:`~repro.machine.simulator.SimulationResult`, same store contents,
same ``machine.*`` metric values, same PE firings.  This module pins that
down across

* the bit-level matmul machine (both designs x both expansions);
* every registered arithmetic structure, each exercised on the machine
  path that executes it;
* the bit-level model machine on a convolution, with initial words;
* the word-level model machine on the ``kind="word"`` draws among >= 20
  seeded random feasible mappings from :mod:`repro.verify.generator`.
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
    install_capture,
    model_machine_run,
    word_model_run,
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


# ---------------------------------------------------------------------------
# Every registered arithmetic structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arith", list_structures())
def test_registered_arithmetic_equivalence(arith):
    assert_arithmetic_equivalent(arith, BACKENDS, seed=0xA1)


# ---------------------------------------------------------------------------
# Model-(3.5) machines at non-matmul h̄
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expansion", ["I", "II"])
def test_model_machine_equivalence(expansion, capture, rng):
    state = rng.getstate()
    runs = {}
    for backend in BACKENDS:
        rng.setstate(state)  # same operands on every backend
        runs[backend] = model_machine_run(backend, expansion, rng, capture)
    (out_pw, run_pw), (out_c, run_c) = runs["pointwise"], runs["compiled"]
    assert out_pw == out_c
    assert_runs_match(run_pw, run_c, f"convolution exp {expansion}")


# ---------------------------------------------------------------------------
# Random feasible mappings from the verification generator
# ---------------------------------------------------------------------------

def test_random_feasible_mappings_equivalent(capture):
    """The word-level model machine on the ``kind="word"`` draws (random
    h̄ and mapping)."""
    cases = [
        (case, t) for case, _, _, t in feasible_cases(seed=42)
        if case.kind == "word"
    ]
    assert len(cases) >= 5
    for k, (case, t) in enumerate(cases):
        runs = {
            backend: word_model_run(case, t, backend, k, capture)
            for backend in BACKENDS
        }
        (out_pw, run_pw), (out_c, run_c) = runs["pointwise"], runs["compiled"]
        assert out_pw.z_words == out_c.z_words
        assert_runs_match(run_pw, run_c, f"word model mapping {t.rows}")


def test_random_mapping_count_is_at_least_twenty():
    """Guard: the suite's random sweep keeps covering >= 20 mappings."""
    assert N_RANDOM_MAPPINGS >= 20
