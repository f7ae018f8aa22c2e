"""Differential backend-equivalence suite: compiled vs pointwise.

The compiled backend is only a speedup if it is *undetectable*: same
product, same :class:`~repro.machine.simulator.SimulationResult`, same
store contents, same ``machine.*`` metric values, same PE firing
records as the pointwise reference.  This module pins that down across

* the bit-level matmul machine (both designs x both expansions x
  rectangular sizes, with store snapshots and PE firings), on the
  compiled program and on the generic per-point path (``kernel=None``);
* the int64 lane gates (``p`` in {32, 33, 62, 63});
* every registered arithmetic structure, each on its machine path;
* the generic model-(3.5) machine and >= 20 seeded random feasible
  mappings (the compiled backend's generic path), cold and replayed
  from the memoized plan;
* the artifact cache's absence from compiled runs: programs live only in
  the in-process memo, so ``REPRO_CACHE_DIR`` changes no result or
  metric and receives no file.

The wavefront-vs-pointwise cases of the same machines live in
``tests/test_wavefront_equivalence.py``; both use the plumbing in
``tests/equivalence.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.arith.registry import list_structures
from repro.compile.plan import clear_plan_memo, plan_for
from repro.compile.runner import clear_program_memo
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.simulator import BACKENDS, default_backend, resolve_backend
from repro.mapping import designs
from repro.mapping.transform import MappingMatrix
from tests.conftest import random_matrix, reference_matmul
from tests.equivalence import (
    assert_arithmetic_equivalent,
    assert_runs_match,
    bitlevel_run,
    design_mapping,
    feasible_cases,
    firings,
    generic_run,
    install_capture,
    model_machine_run,
    observed,
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
# Backend names
# ---------------------------------------------------------------------------

def test_backends_are_pointwise_and_compiled(monkeypatch):
    assert BACKENDS == ("pointwise", "compiled")
    with pytest.raises(ValueError, match="unknown backend 'wavefront'"):
        resolve_backend("wavefront")
    monkeypatch.setenv("REPRO_SIM_BACKEND", "wavefront")
    with pytest.raises(ValueError, match="REPRO_SIM_BACKEND='wavefront'"):
        default_backend()


# ---------------------------------------------------------------------------
# Bit-level matmul machine: designs x expansions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("design", ["fig4", "fig5"])
@pytest.mark.parametrize("expansion", ["I", "II"])
def test_bitlevel_three_backend_equivalence(
    design, expansion, capture, monkeypatch, rng
):
    """Three execution paths of one design: the pointwise oracle, the
    compiled program, and the compiled backend's generic per-point path
    (the machine's kernel dropped)."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = design_mapping(design, p)
    outs, runs = {}, {}
    for backend in BACKENDS:
        outs[backend], runs[backend] = bitlevel_run(
            u, p, mapping, expansion, backend, x, y, capture
        )
    use_generic_path(monkeypatch)
    outs["generic"], runs["generic"] = bitlevel_run(
        u, p, mapping, expansion, "compiled", x, y, capture
    )
    mask = (1 << (2 * p - 1)) - 1
    ref = outs["pointwise"]
    for path in ("compiled", "generic"):
        got = outs[path]
        assert got.product == ref.product == reference_matmul(x, y, mask)
        assert (got.dropped_bits, got.max_summands) == (
            ref.dropped_bits, ref.max_summands
        )
        assert_runs_match(
            runs["pointwise"], runs[path],
            f"bitlevel {design}/exp {expansion}: pointwise vs {path}",
        )


@pytest.mark.parametrize("size", [(2, 4), (4, 2), (3, 4)])
def test_bitlevel_rectangular_sizes(size, capture, rng):
    u, p = size
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    runs = {}
    for backend in BACKENDS:
        out, runs[backend] = bitlevel_run(
            u, p, designs.fig4_mapping(p), "II", backend, x, y, capture
        )
        assert out.product == reference_matmul(x, y, (1 << (2 * p - 1)) - 1)
    assert_runs_match(
        runs["pointwise"], runs["compiled"], f"bitlevel u={u} p={p}"
    )


def test_compiled_kernel_and_shim_agree(capture, monkeypatch, rng):
    """``kernel=None``: the compiled backend's generic per-point path must
    produce the same run as its compiled program, store and firings
    included."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = designs.fig4_mapping(p)
    out_kernel, run_kernel = bitlevel_run(
        u, p, mapping, "II", "compiled", x, y, capture
    )
    use_generic_path(monkeypatch)
    out_generic, run_generic = bitlevel_run(
        u, p, mapping, "II", "compiled", x, y, capture
    )
    assert out_kernel.product == out_generic.product
    assert out_kernel.max_summands == out_generic.max_summands
    assert_runs_match(run_kernel, run_generic, "compiled program vs generic")


@pytest.mark.parametrize("p", [32, 33, 62, 63])
def test_bitlevel_int64_gate_products(p):
    """On the int64 gates: the compiled program runs up to ``p = 62``, and
    products wider than 63 bits (``p >= 33``) must still come out exact."""
    u = 1
    top = (1 << p) - 1
    mask = (1 << (2 * p - 1)) - 1
    rng = random.Random(p)
    cases = [
        ([[top]], [[top]]),  # sets the weight 2^(2p-2) product bit
        (random_matrix(rng, u, p), random_matrix(rng, u, p)),
    ]
    for x, y in cases:
        runs = {}
        for backend in BACKENDS:
            machine = BitLevelMatmulMachine(
                u, p, designs.fig4_mapping(p), "II", backend=backend
            )
            runs[backend] = observed(lambda: machine.run(x, y))
        (pw, m_pw), (c, m_c) = runs["pointwise"], runs["compiled"]
        assert pw.product == c.product == reference_matmul(x, y, mask)
        assert pw.sim == c.sim
        assert m_pw["counters"] == m_c["counters"]


# ---------------------------------------------------------------------------
# Every registered arithmetic structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arith", list_structures())
def test_registered_arithmetic_compiled_equivalence(arith):
    assert_arithmetic_equivalent(arith, BACKENDS, seed=0xC0)


# ---------------------------------------------------------------------------
# Generic model-(3.5) machine and random mappings (generic path)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expansion", ["I", "II"])
def test_model_machine_compiled_equivalence(expansion, rng):
    """Pointwise, a cold compiled run and a compiled run replayed from the
    memoized generic plan all agree."""
    state = rng.getstate()
    clear_plan_memo()
    runs = []
    for backend in ("pointwise", "compiled", "compiled"):
        rng.setstate(state)  # same operands on every run
        runs.append(model_machine_run(backend, expansion, rng))
    (out_pw, (sim_pw, m_pw)), *compiled = runs
    for out_c, (sim_c, m_c) in compiled:
        assert out_pw == out_c
        assert sim_pw == sim_c
        assert m_pw["counters"] == m_c["counters"]
        assert m_pw["gauges"] == m_c["gauges"]


def test_random_feasible_mappings_three_backends():
    """Three runs per mapping: the pointwise oracle, a compiled run that
    builds its generic plan cold, and a second compiled run, which
    replays the memoized plan wherever the index set is rectangular.
    The draw seed differs from the wavefront suite's, so the two sweeps
    cover different mappings."""
    for case, alg, binding, t in feasible_cases(seed=43):
        clear_plan_memo()
        ref = generic_run(alg, binding, t, "pointwise")
        for leg in ("cold", "warm"):
            assert_runs_match(
                ref, generic_run(alg, binding, t, "compiled"),
                f"{case.kind} mapping {t.rows}: pointwise vs compiled ({leg})",
            )


# ---------------------------------------------------------------------------
# Plan memoization
# ---------------------------------------------------------------------------

def test_schedule_plan_is_memoized_across_runs():
    """Repeat simulations of the same design reuse one SchedulePlan (the
    per-run argsort/grouping work is paid once per design)."""
    p = 3
    mapping = designs.fig4_mapping(p)
    lowers = (1, 1, 1, 1, 1)
    uppers = (3, 3, 3, p, p)
    clear_plan_memo()
    first = plan_for(mapping, lowers, uppers)
    again = plan_for(mapping, lowers, uppers)
    assert first is again
    # Distinct bounds get a distinct plan.
    other = plan_for(mapping, lowers, (2, 2, 2, p, p))
    assert other is not first


def test_compiled_runs_share_plan_memo(capture, rng):
    """Recompiling a design and materializing its PE firings hit the same
    memoized plan entry rather than regrouping the lattice."""
    import repro.compile.plan as plan_mod

    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = designs.fig4_mapping(p)
    clear_plan_memo()
    calls = []
    real_build = plan_mod._build_plan

    def counting_build(mapping_, lowers, uppers):
        calls.append((mapping_.rows, lowers, uppers))
        return real_build(mapping_, lowers, uppers)

    plan_mod._build_plan, saved = counting_build, real_build
    try:
        for _ in range(2):
            clear_program_memo()  # force a fresh compile of the design
            BitLevelMatmulMachine(
                u, p, mapping, "II", backend="compiled"
            ).run(x, y)
            firings(capture[-1])
    finally:
        plan_mod._build_plan = saved
    assert len(calls) == 1, f"plan rebuilt {len(calls)} times for one design"


def test_plan_memo_failures_not_cached():
    """Conflicting mappings raise on every call (errors never memoize)."""
    bad = MappingMatrix(
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], "T-conflict"
    )
    clear_plan_memo()
    for _ in range(2):
        with pytest.raises(ValueError, match="conflict"):
            plan_for(bad, (1, 1, 1, 1, 1), (2, 2, 2, 2, 2))


# ---------------------------------------------------------------------------
# The artifact cache plays no part in a compiled run
# ---------------------------------------------------------------------------

def test_compiled_run_ignores_cache_dir(tmp_path, monkeypatch, rng):
    """With ``REPRO_CACHE_DIR`` at an empty directory, a compiled run gives
    the cache-off product, result, counters and gauges -- from the memo
    and again after ``clear_program_memo()`` -- and writes nothing there."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = designs.fig4_mapping(p)

    def run_once():
        machine = BitLevelMatmulMachine(
            u, p, mapping, "II", backend="compiled"
        )
        return observed(lambda: machine.run(x, y))

    out_off, m_off = run_once()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for drop_memo in (False, True):
        if drop_memo:
            clear_program_memo()
        out, m = run_once()
        assert out.product == out_off.product
        assert out.sim == out_off.sim
        assert m["counters"] == m_off["counters"]
        assert m["gauges"] == m_off["gauges"]
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Serve path
# ---------------------------------------------------------------------------

def test_serve_simulate_compiled_backend():
    from repro.serve.dispatch import run_job
    from repro.serve.jobs import JobSpec

    result = run_job(JobSpec(kind="simulate", u=2, p=2, sim_backend="compiled"))
    assert result.ok
    assert result.data["correct"] is True
    assert result.data["backend"] == "compiled"
