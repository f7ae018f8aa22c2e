"""Differential backend-equivalence suite: compiled vs pointwise.

The compiled backend is only a speedup if it is *undetectable*: same
product, same :class:`~repro.machine.simulator.SimulationResult`, same
store contents and same ``machine.*`` metric values as the pointwise
reference.  (Per-point firing records are the pointwise interpreter's
alone; the ``--gantt`` chart draws them from the design, see
``tests/test_render.py``.)  This module pins that down across

* the bit-level matmul machine (both designs x both expansions x
  rectangular sizes, with store snapshots);
* the int64 lane gates (``p`` in {32, 33, 62, 63});
* every ranked candidate of the ``design_flow`` search, whose non-paper
  schedules mix full and empty site selections in one program;
* a schedule sweep where the compiled backend decides causality at
  compile time and the pointwise backend at run time;
* every registered arithmetic structure, each on its machine path;
* the model machines at non-matmul ``h̄``: the convolution model with
  initial words (cold compile and replayed from the program memo),
  rectangular matmul boxes, ragged and C-order-reversed ``h̄₃`` chains
  on ``BitLevelDesigner`` designs, pass-partitioned runs, and the
  word-level model machine on >= 20 seeded random feasible mappings;
* the value program shared by every design with one chain shape, and a
  crafted compressor overflow named at the point each design fires
  first;
* the schedule plan: one per design, sized by its beats and PEs rather
  than its points, and a conflicting design's error naming the collision
  the pointwise machine raises on;
* the artifact cache's absence from compiled runs: programs live only in
  the in-process memo, so ``REPRO_CACHE_DIR`` changes no result or
  metric and receives no file.

``tests/test_wavefront_equivalence.py`` repeats the arithmetic and
random-mapping sweeps from other seeds; both use the plumbing in
``tests/equivalence.py``.
"""

from __future__ import annotations

import collections
import itertools
import random

import pytest

from repro.arith.registry import list_structures
from repro.compile.model import compile_model_program, value_program
from repro.compile.plan import DenseValueStore, clear_plan_memo, plan_for
from repro.compile.runner import clear_program_memo
from repro.expansion.theorem31 import matmul_bit_level
from repro.machine import model as model_mod
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.model import MATMUL_H, BitLevelModelMachine
from repro.machine.simulator import (
    BACKENDS,
    SpaceTimeSimulator,
    default_backend,
    resolve_backend,
)
from repro.machine.wordlevel import WordLevelMatmulMachine
from repro.machine.wordmodel import WordLevelModelMachine
from repro.mapping import designs
from repro.mapping.engine import SearchConfig, run_search
from repro.mapping.transform import MappingMatrix
from repro.pipeline import BitLevelDesigner
from repro.structures.algorithm import Algorithm
from repro.structures.indexset import IndexSet
from tests.conftest import random_matrix, reference_matmul
from tests.equivalence import (
    N_RANDOM_MAPPINGS,
    assert_arithmetic_equivalent,
    assert_runs_match,
    assert_word_mappings_equivalent,
    bitlevel_run,
    design_mapping,
    captured_run,
    chain_words,
    install_capture,
    model_machine_run,
    observed,
    partitioned_run,
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
def test_bitlevel_three_backend_equivalence(design, expansion, capture, rng):
    """One design on the pointwise oracle and on its compiled program,
    store snapshots included."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = design_mapping(design, p)
    outs, runs = {}, {}
    for backend in BACKENDS:
        outs[backend], runs[backend] = bitlevel_run(
            u, p, mapping, expansion, backend, x, y, capture
        )
    mask = (1 << (2 * p - 1)) - 1
    ref, got = outs["pointwise"], outs["compiled"]
    assert got.product == ref.product == reference_matmul(x, y, mask)
    assert (got.dropped_bits, got.max_summands) == (
        ref.dropped_bits, ref.max_summands
    )
    assert_runs_match(
        runs["pointwise"], runs["compiled"],
        f"bitlevel {design}/exp {expansion}: pointwise vs compiled",
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


def test_matmul_wrappers_forward_backend(capture, rng):
    """Setting a matmul machine's ``backend`` after construction switches
    the backend its next run uses."""
    u = p = 2
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    for machine in (
        BitLevelMatmulMachine(u, p, designs.fig4_mapping(p), backend="pointwise"),
        WordLevelMatmulMachine(u, p, backend="pointwise"),
    ):
        for backend in BACKENDS:
            machine.backend = backend
            machine.run(x, y)
            assert capture[-1].backend == backend


def test_dense_store_rejects_points_of_another_dimension():
    import numpy as np

    store = DenseValueStore((1, 1), (2, 2))
    store.attach("s", np.arange(4).reshape(2, 2), np.ones((2, 2), dtype=bool))
    assert store.get("s", (2, 1)) == 2
    for point in [(1, 1, 9), (1,)]:
        with pytest.raises(KeyError):
            store.get("s", point)


@pytest.mark.parametrize("u", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("expansion", ["I", "II"])
def test_searched_designs_compiled_equivalence(u, p, expansion, capture, rng):
    """Every ranked candidate of the ``design_flow`` search (its config and
    the fig4 primitives) runs on the compiled program exactly as on the
    pointwise reference: product, result, store, counters, gauges."""
    config = SearchConfig(target_space_dim=2, block_values=[p],
                          schedule_bound=2, max_candidates=5)
    found = run_search(matmul_bit_level(u, p, expansion), {"u": u, "p": p},
                       designs.fig4_primitives(p), config)
    assert found
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    want = reference_matmul(x, y, (1 << (2 * p - 1)) - 1)
    for cand in found:
        outs, runs = {}, {}
        for backend in BACKENDS:
            outs[backend], runs[backend] = bitlevel_run(
                u, p, cand.mapping, expansion, backend, x, y, capture
            )
        ref, got = outs["pointwise"], outs["compiled"]
        assert got.product == ref.product == want
        assert (got.dropped_bits, got.max_summands) == (
            ref.dropped_bits, ref.max_summands
        )
        assert_runs_match(
            runs["pointwise"], runs["compiled"],
            f"searched design {cand.mapping.rows} exp {expansion}",
        )


#: Read displacements the bit-level lattice realizes at u = p = 2 under
#: either expansion (the c' read along (0,0,0,0,2) needs p >= 3).
_READS_AT_P2 = (
    (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, -1),
)


def test_schedule_sweep_causality_matches_pointwise():
    """Every schedule in {-1..2}^5 under the fig4/fig5 space rows (the
    two designs share them), both expansions, u = p = 2.

    A conflict-free schedule with ``Π·d̄ >= 1`` on every realized read
    runs on the compiled program and matches the pointwise run; any other
    conflict-free schedule raises "causality violation" on the compiled
    backend, which decides causality at compile time (the boundary
    re-routes need no run-time guard), and the pointwise backend raises
    too; a conflicting schedule raises on both."""
    u = p = 2
    x, y = [[3, 1], [2, 3]], [[1, 3], [3, 2]]
    machines = {
        (e, b): BitLevelMatmulMachine(u, p, designs.fig4_mapping(p), e,
                                      backend=b)
        for e in ("I", "II") for b in BACKENDS
    }
    spaces = {design_mapping(d, p).rows[:-1] for d in ("fig4", "fig5")}
    outcomes = collections.Counter()
    for space in sorted(spaces):
        for schedule in itertools.product(range(-1, 3), repeat=5):
            mapping = MappingMatrix([*space, schedule], "T-sweep")
            causal = all(
                sum(a * b for a, b in zip(schedule, d)) >= 1
                for d in _READS_AT_P2
            )
            for expansion in ("I", "II"):
                compiled = machines[expansion, "compiled"]
                pointwise = machines[expansion, "pointwise"]
                compiled.mapping = pointwise.mapping = mapping
                try:
                    out = compiled.run(x, y)
                except ValueError as exc:
                    assert "conflict" in str(exc)
                    with pytest.raises((ValueError, AssertionError, KeyError)):
                        pointwise.run(x, y)
                    outcomes["conflict"] += 1
                    continue
                except AssertionError as exc:
                    assert not causal, (schedule, expansion, str(exc))
                    assert "causality violation" in str(exc)
                    with pytest.raises((AssertionError, KeyError)):
                        pointwise.run(x, y)
                    outcomes["non-causal"] += 1
                    continue
                assert causal, (schedule, expansion)
                ref = pointwise.run(x, y)
                assert (out.product, out.sim) == (ref.product, ref.sim)
                outcomes["ran"] += 1
    assert outcomes == {"ran": 16, "non-causal": 1520, "conflict": 512}


def _sweep_outcome(run, reference):
    """"ran" when ``run()`` returns ``reference``, "raised" when it
    raises; a wrong product returned without an error fails the test."""
    try:
        got = run()
    except (ValueError, AssertionError, KeyError):
        return "raised"
    assert got == reference
    return "ran"


@pytest.mark.parametrize("backend", BACKENDS)
def test_model_machine_schedule_sweep_never_returns_a_wrong_product(backend):
    """The u = p = 2 schedule sweep above, on the model machine at
    matmul's h̄.

    Every Π in {-1..2}^5 under the fig4/fig5 space rows, both expansions:
    each attempt returns the reference product or raises.  The c, δ̄₃ s
    and c' reads have no boundary default, so a schedule that reads one
    before its write raises instead of summing a 0."""
    u = p = 2
    x, y = [[3, 1], [2, 3]], [[1, 3], [3, 2]]
    points = list(itertools.product(range(1, u + 1), repeat=3))
    xw = {j: x[j[0] - 1][j[2] - 1] for j in points}
    yw = {j: y[j[2] - 1][j[1] - 1] for j in points}
    machines = {
        e: BitLevelModelMachine(*MATMUL_H, [1] * 3, [u] * 3, p,
                                designs.fig4_mapping(p), e, backend=backend)
        for e in ("I", "II")
    }
    references = {e: m.reference(xw, yw) for e, m in machines.items()}
    spaces = {design_mapping(d, p).rows[:-1] for d in ("fig4", "fig5")}
    outcomes = collections.Counter()
    for space in sorted(spaces):
        for schedule in itertools.product(range(-1, 3), repeat=5):
            for e, machine in machines.items():
                machine.mapping = MappingMatrix([*space, schedule], "T-sweep")
                outcomes[_sweep_outcome(
                    lambda: machine.run(xw, yw).outputs, references[e]
                )] += 1
    assert outcomes == {"ran": 16, "raised": 2032}


@pytest.mark.parametrize("backend", BACKENDS)
def test_word_level_schedule_sweep_never_returns_a_wrong_product(backend):
    """Every Π in {-1..2}^3 under the word-level space rows at u = p = 3:
    the z read defaults to 0 only at j₃ = 1, so a schedule that reads a
    later z before its write (π₃ = -1, say) raises."""
    u, p = 3, 3
    rng = random.Random(7)
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    machine = WordLevelMatmulMachine(u, p, backend=backend)
    space = machine.mapping.rows[:-1]
    outcomes = collections.Counter()
    for schedule in itertools.product(range(-1, 3), repeat=3):
        machine.mapping = MappingMatrix([*space, schedule], "T-sweep")
        outcomes[_sweep_outcome(
            lambda: machine.run(x, y).product, reference_matmul(x, y)
        )] += 1
    assert outcomes == {"ran": 8, "raised": 56}


# ---------------------------------------------------------------------------
# Every registered arithmetic structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arith", list_structures())
def test_registered_arithmetic_compiled_equivalence(arith):
    assert_arithmetic_equivalent(arith, BACKENDS, seed=0xC0)


# ---------------------------------------------------------------------------
# Model-(3.5) machines at non-matmul h̄, and random mappings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expansion", ["I", "II"])
def test_model_machine_compiled_equivalence(expansion, capture, rng):
    """The convolution model with initial words: pointwise, a cold
    compiled run and a compiled run replayed from the memoized program
    agree in outputs, results, store, counters and gauges."""
    state = rng.getstate()
    clear_plan_memo()
    runs = []
    for backend in ("pointwise", "compiled", "compiled"):
        rng.setstate(state)  # same operands on every run
        runs.append(model_machine_run(backend, expansion, rng, capture))
    (out_pw, run_pw), *compiled = runs
    for leg, (out_c, run_c) in zip(("cold", "warm"), compiled):
        assert out_pw == out_c
        assert_runs_match(run_pw, run_c, f"convolution exp {expansion} ({leg})")


@pytest.mark.parametrize("expansion", ["I", "II"])
@pytest.mark.parametrize("bounds", [((1, 1, 1), (2, 3, 1)),
                                    ((2, 1, 3), (4, 2, 5))])
def test_model_machine_rectangular_matmul_box(bounds, expansion, capture):
    """Matmul's h̄ over rectangular boxes (one with a one-iteration
    chain, one off the origin) with initial words: outputs equal the
    reference on both backends, and the runs match."""
    lowers, uppers = bounds
    p = 3
    rng = random.Random(sum(uppers))
    points = list(itertools.product(
        *(range(lo, hi + 1) for lo, hi in zip(lowers, uppers))
    ))
    xv = {(j[0], j[2]): rng.randrange(1 << p) for j in points}
    yv = {(j[2], j[1]): rng.randrange(1 << p) for j in points}
    xw = {j: xv[j[0], j[2]] for j in points}
    yw = {j: yv[j[2], j[1]] for j in points}
    z0 = {j: rng.randrange(1 << 9) for j in points if j[2] == lowers[2]}
    outs, runs = {}, {}
    for backend in BACKENDS:
        machine = BitLevelModelMachine(
            *MATMUL_H, lowers, uppers, p, designs.fig4_mapping(p),
            expansion, backend=backend,
        )
        out, runs[backend] = captured_run(
            lambda: machine.run(xw, yw, z0), capture
        )
        assert out.outputs == machine.reference(xw, yw, z0)
        outs[backend] = (out.z_words, out.dropped_bits, out.max_summands)
    assert outs["pointwise"] == outs["compiled"]
    assert_runs_match(runs["pointwise"], runs["compiled"], f"box {bounds}")


#: Model-(3.5) instances whose h̄₃ chains are ragged (h̄₃ = (1,1),
#: (1,-1)) or run against C order (h̄₃ = (0,-1)): ``(h̄₁, h̄₂, h̄₃, uppers)``
#: over boxes from ``(1, 1)``.
RAGGED_MODELS = [
    ((1, 0), (0, 1), (1, 1), (3, 4)),
    ((1, 0), (0, 1), (1, 1), (5, 2)),
    ((1, 0), (1, -1), (0, -1), (4, 3)),
    ((1, 0), (0, 1), (1, -1), (3, 3)),
]


@pytest.mark.parametrize("expansion", ["I", "II"])
@pytest.mark.parametrize("h1, h2, h3, uppers", RAGGED_MODELS)
def test_model_machine_ragged_chains(h1, h2, h3, uppers, expansion, capture):
    """On the design ``BitLevelDesigner`` finds, with initial words at
    some chain starts: the pointwise run, a cold compiled run and a warm
    one agree in outputs, z words, results, store, counters and gauges,
    and the outputs equal the reference."""
    p = 3
    lowers = (1, 1)
    designer = BitLevelDesigner(h1=h1, h2=h2, h3=h3, lowers=lowers,
                                uppers=uppers, p=p, expansion=expansion)
    machine = designer.build_machine(designer.design().mapping)
    rng = random.Random(sum(uppers))
    xw = chain_words(h1, lowers, uppers, rng, 1 << p)
    yw = chain_words(h2, lowers, uppers, rng, 1 << p)
    box = machine.box
    starts = [j for j, inside in zip(box.points, box.z_in) if not inside]
    z0 = {j: rng.randrange(1 << (2 * p - 1)) for j in starts[::2]}
    want = machine.reference(xw, yw, z0)
    runs = []
    for backend in ("pointwise", "compiled", "compiled"):
        machine.backend = backend
        out, run = captured_run(lambda: machine.run(xw, yw, z0), capture)
        assert out.outputs == want
        runs.append(((out.z_words, out.dropped_bits, out.max_summands), run))
    (out_pw, run_pw), *compiled = runs
    for leg, (out_c, run_c) in zip(("cold", "warm"), compiled):
        assert out_pw == out_c
        assert_runs_match(run_pw, run_c,
                          f"h3 {h3} over {uppers} exp {expansion} ({leg})")


def test_one_value_program_per_chain_shape():
    """fig4 and fig5 at one (u, p, expansion) share one value program, as
    do matmul boxes whose chains have the same length; another chain
    length or expansion gets its own."""
    p = 3

    def program(design, lowers, uppers, expansion="II"):
        return compile_model_program(
            design_mapping(design, p), *MATMUL_H, lowers, uppers, p, expansion
        )

    fig4 = program("fig4", (1, 1, 1), (3, 3, 3))
    assert program("fig5", (1, 1, 1), (3, 3, 3)).values is fig4.values
    assert value_program.cache_info().currsize == 1
    for lowers, uppers in (((1, 1, 1), (2, 4, 3)), ((2, 1, 3), (4, 2, 5))):
        assert program("fig4", lowers, uppers).values is fig4.values
    assert value_program.cache_info().currsize == 1
    assert program("fig4", (1, 1, 1), (3, 3, 2)).values is not fig4.values
    assert program("fig4", (1, 1, 1), (3, 3, 3), "I").values is not fig4.values
    assert fig4.index_bytes == fig4.values.index_bytes


def test_overflow_names_the_point_the_design_fires_first(monkeypatch):
    """A crafted compressor overflow: initial-word bits enter with weight
    8, so the two boundary points that take one overflow.  Both backends
    name the one the design fires first: (2,2,1,1,1) at t = 8 before
    (1,1,1,3,1) at t = 10 under fig4, the other way round (16 and 14)
    under fig5."""
    u = p = 3
    real_to_bits = model_mod.to_bits

    def to_bits(value, n):
        bits = real_to_bits(value, n)
        return [8 * b for b in bits] if n == 2 * p - 1 else bits

    real_kernel = BitLevelModelMachine._kernel

    def kernel(self, *args):
        k = real_kernel(self, *args)
        k.zbits = k.zbits * 8
        return k

    monkeypatch.setattr(model_mod, "to_bits", to_bits)
    monkeypatch.setattr(BitLevelModelMachine, "_kernel", kernel)
    points = list(itertools.product(range(1, u + 1), repeat=3))
    xw = {j: 5 for j in points}
    yw = {j: 3 for j in points}
    z0 = {(1, 1, 1): 0b100, (2, 2, 1): 0b001}  # at (3, 1) and (1, 1)
    named = {}
    for design in ("fig4", "fig5"):
        for backend in BACKENDS:
            machine = BitLevelModelMachine(
                *MATMUL_H, [1] * 3, [u] * 3, p, design_mapping(design, p),
                "II", backend=backend,
            )
            with pytest.raises(AssertionError) as info:
                machine.run(xw, yw, z0)
            named[design, backend] = str(info.value)
    assert named["fig4", "pointwise"] == named["fig4", "compiled"]
    assert named["fig5", "pointwise"] == named["fig5", "compiled"]
    assert named["fig4", "compiled"].startswith(
        "compressor overflow at (2, 2, 1, 1, 1):")
    assert named["fig5", "compiled"].startswith(
        "compressor overflow at (1, 1, 1, 3, 1):")


@pytest.mark.parametrize("expansion", ["I", "II"])
def test_partitioned_machine_compiled_equivalence(
    expansion, capture, monkeypatch
):
    """Pass-partitioned matmul with initial words: every pass's result
    and store match across backends."""
    outs, runs = {}, {}
    for backend in BACKENDS:
        outs[backend], runs[backend] = partitioned_run(
            backend, expansion, random.Random(5), capture, monkeypatch
        )
        assert {sim.backend for sim in capture[-3:]} == {backend}
    assert outs["pointwise"] == outs["compiled"]
    assert_runs_match(
        runs["pointwise"], runs["compiled"], f"partitioned exp {expansion}"
    )


def test_random_feasible_mappings_three_backends(capture):
    """The word-level model machine on every ``kind="word"`` draw among
    the seeded feasible mappings (random h̄), on the pointwise oracle and
    on a cold and a memo-replayed compiled run."""
    assert_word_mappings_equivalent(43, capture)


def test_random_mapping_count_is_at_least_twenty():
    """Guard: each seeded random sweep keeps covering >= 20 mappings."""
    assert N_RANDOM_MAPPINGS >= 20


def test_word_model_words_must_follow_their_chains():
    """A word-model operand that varies along its h̄ chain raises."""
    machine = WordLevelModelMachine(
        *MATMUL_H, [1, 1, 1], [2, 2, 2], 3, designs.word_level_mapping()
    )
    points = list(itertools.product((1, 2), repeat=3))
    xw = {j: 1 for j in points}
    yw = {j: 2 for j in points}
    xw[(1, 2, 1)] = 3  # x must be constant along h̄₁ = (0, 1, 0)
    with pytest.raises(ValueError, match="pipelining"):
        machine.run(xw, yw)
    xw[(1, 2, 1)] = 1
    yw[(2, 1, 2)] = 3  # y must be constant along h̄₂ = (1, 0, 0)
    with pytest.raises(ValueError, match="pipelining"):
        machine.run(xw, yw)


# ---------------------------------------------------------------------------
# Plan memoization
# ---------------------------------------------------------------------------

def test_schedule_plan_is_memoized_across_runs():
    """Repeat simulations of the same design reuse one SchedulePlan (its
    census and conflict check are paid once per design)."""
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


def test_run_counts_cannot_change_the_next_run(rng):
    """A compiled run's per-PE and per-beat counts are the memoized plan's
    own, shared without a copy: read-only, so changing one run's cannot
    change the next run's result."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    machine = BitLevelMatmulMachine(
        u, p, designs.fig4_mapping(p), "II", backend="compiled"
    )
    first = machine.run(x, y).sim
    want = dict(first.pe_busy), dict(first.busy_per_step)
    for counts in (first.pe_busy, first.busy_per_step):
        key = next(iter(counts))
        with pytest.raises(TypeError):
            counts[key] += 1
        with pytest.raises(TypeError):
            del counts[key]
    again = machine.run(x, y).sim
    assert (dict(again.pe_busy), dict(again.busy_per_step)) == want


def test_compiled_runs_share_plan_memo(capture, rng):
    """Recompiling a design reuses its memoized plan."""
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
    finally:
        plan_mod._build_plan = saved
    assert len(calls) == 1, f"plan rebuilt {len(calls)} times for one design"


@pytest.mark.parametrize("design", ["fig4", "fig5"])
def test_plan_size_follows_steps_and_pes(design):
    """A u = p = 16 plan (1,048,576 points, 65,536 PEs) holds its
    statistics, not its points: listing them took 64 MiB of int64
    lattice, times and processors."""
    import tracemalloc

    mapping = design_mapping(design, 16)
    clear_plan_memo()
    tracemalloc.start()
    try:
        plan = plan_for(mapping, (1,) * 5, (16,) * 5)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_plan_memo()
    assert plan.n_points == 16 ** 5
    assert retained <= 12 << 20, retained
    assert peak < 32 << 20, peak


def test_plan_memo_failures_not_cached():
    """Conflicting mappings raise on every call (errors never memoize)."""
    bad = MappingMatrix(
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], "T-conflict"
    )
    clear_plan_memo()
    for _ in range(2):
        with pytest.raises(ValueError, match="conflict"):
            plan_for(bad, (1, 1, 1, 1, 1), (2, 2, 2, 2, 2))


def test_plan_conflict_names_the_pointwise_collision():
    """A conflicting design's plan error is the pointwise machine's: the
    first point in firing order (``Π·j̄``, C order within a beat) whose
    ``(S·j̄, Π·j̄)`` slot is taken, against the slot's first point."""
    rng = random.Random(28)
    compared = 0
    while compared < 200:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)]
                for _ in range(rng.randint(1, n))]
        uppers = tuple(rng.randint(1, 4) for _ in range(n))
        mapping = MappingMatrix(rows, "T-random")
        sim = SpaceTimeSimulator(
            mapping, Algorithm(IndexSet([1] * n, uppers), []), {},
            backend="pointwise",
        )
        try:
            sim.run(lambda point, store: None)
        except ValueError as exc:
            expected = str(exc)
        else:
            continue
        with pytest.raises(ValueError) as raised:
            plan_for(mapping, (1,) * n, uppers)
        assert str(raised.value) == expected, (rows, uppers)
        compared += 1


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
