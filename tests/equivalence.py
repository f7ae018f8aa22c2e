"""Shared plumbing for the backend-equivalence suites.

``tests/test_compiled_equivalence.py`` compares the ``compiled`` backend
against the ``pointwise`` reference, and
``tests/test_wavefront_equivalence.py`` repeats two of its sweeps from
other seeds.  The machines build their simulator internally (the
bit-level and word-level model machines, which the matmul machines
wrap), so store snapshots are grabbed by substituting a recording
:class:`SpaceTimeSimulator` subclass.
"""

from __future__ import annotations

import itertools
import random

from repro import obs
from repro.arith.baughwooley import BaughWooleyMultiplier
from repro.compile.runner import clear_program_memo
from repro.machine import model as model_mod
from repro.machine import wordmodel as wordmodel_mod
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.model import BitLevelModelMachine
from repro.machine.partition import PartitionedModelMachine
from repro.machine.signed import signed_matmul
from repro.machine.simulator import SpaceTimeSimulator
from repro.machine.wordlevel import WordLevelMatmulMachine
from repro.machine.wordmodel import WordLevelModelMachine
from repro.mapping import check_feasibility, designs
from repro.mapping.transform import MappingMatrix
from repro.verify.generator import gen_mapping_case
from tests.conftest import random_matrix, reference_matmul


class CaptureSimulator(SpaceTimeSimulator):
    instances: list[SpaceTimeSimulator] = []

    def run(self, compute, kernel=None):
        type(self).instances.append(self)
        return super().run(compute, kernel)


def install_capture(monkeypatch) -> list[SpaceTimeSimulator]:
    """Patch the machine modules to record every simulator they build."""
    CaptureSimulator.instances = []
    monkeypatch.setattr(model_mod, "SpaceTimeSimulator", CaptureSimulator)
    monkeypatch.setattr(wordmodel_mod, "SpaceTimeSimulator", CaptureSimulator)
    return CaptureSimulator.instances


def observed(fn):
    """Run ``fn`` under a fresh obs registry; return (result, metrics)."""
    with obs.collecting() as reg:
        out = fn()
    return out, obs.metrics_dict(reg)


def assert_runs_match(ref, got, label):
    """Each run is ``(sim_result, snapshot, metrics)``."""
    assert ref[0] == got[0], f"{label}: SimulationResult diverged"
    assert ref[1] == got[1], f"{label}: store contents diverged"
    assert ref[2]["counters"] == got[2]["counters"], f"{label}: counters diverged"
    assert ref[2]["gauges"] == got[2]["gauges"], f"{label}: gauges diverged"


def bitlevel_run(u, p, mapping, expansion, backend, x, y, capture):
    """One bit-level matmul run; needs :func:`install_capture` active."""
    machine = BitLevelMatmulMachine(u, p, mapping, expansion, backend=backend)
    out, metrics = observed(lambda: machine.run(x, y))
    sim = capture[-1]
    return out, (out.sim, sim.store.snapshot(), metrics)


def design_mapping(design, p):
    return designs.fig5_mapping(p) if design == "fig5" else designs.fig4_mapping(p)


# ---------------------------------------------------------------------------
# Every registered arithmetic structure, each on the machine path that
# executes it
# ---------------------------------------------------------------------------

def _run_addshift(backend, rng):
    u, p = 3, 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    machine = BitLevelMatmulMachine(
        u, p, designs.fig4_mapping(p), "II", backend=backend
    )
    out, metrics = observed(lambda: machine.run(x, y))
    return (out.product, out.sim), metrics


def _run_carrysave(backend, rng):
    u, p = 4, 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    machine = WordLevelMatmulMachine(u, p, "carry-save", backend=backend)
    out, metrics = observed(lambda: machine.run(x, y))
    assert out.product == reference_matmul(x, y)
    return (out.product, out.total_cycles, out.sim), metrics


def _run_baughwooley(backend, rng):
    # Baugh-Wooley is the signed-operand path: the coefficient-split driver
    # over the bit-level machine, cross-checked against the combinational
    # multiplier on every product term.
    u, p = 2, 4
    half = 1 << (p - 1)
    x = [[rng.randint(-half, half - 1) for _ in range(u)] for _ in range(u)]
    y = [[rng.randrange(half // u) for _ in range(u)] for _ in range(u)]
    machine = BitLevelMatmulMachine(
        u, p, designs.fig4_mapping(p), "II", backend=backend
    )
    modulus = 1 << (2 * p - 1)
    out, metrics = observed(
        lambda: signed_matmul(
            lambda a, b: machine.run(a, b).product, x, y, modulus
        )
    )
    bw = BaughWooleyMultiplier(p)
    ref = [
        [sum(bw.multiply(x[i][k], y[k][j]) for k in range(u)) for j in range(u)]
        for i in range(u)
    ]
    assert out == ref
    return out, metrics


ARITH_RUNNERS = {
    "add-shift": _run_addshift,
    "carry-save": _run_carrysave,
    "baugh-wooley": _run_baughwooley,
}


def assert_arithmetic_equivalent(arith, backends, seed):
    """Run ``arith`` on each backend from the same operands; the results
    and metrics must agree with the first backend's."""
    runner = ARITH_RUNNERS.get(arith)
    assert runner is not None, (
        f"arithmetic structure {arith!r} has no backend-equivalence "
        f"runner; extend ARITH_RUNNERS"
    )
    (out_ref, m_ref), *others = (
        runner(backend, random.Random(seed)) for backend in backends
    )
    for backend, (out, m) in zip(backends[1:], others):
        assert out_ref == out, f"{arith}: results diverged ({backend})"
        assert m_ref["counters"] == m["counters"], (
            f"{arith}: counters diverged ({backend})"
        )
        assert m_ref["gauges"] == m["gauges"], f"{arith}: gauges diverged ({backend})"


# ---------------------------------------------------------------------------
# Model-(3.5) machines at non-matmul h̄
# ---------------------------------------------------------------------------

CONV_T = MappingMatrix([[3, 0, 1, 0], [0, 0, 0, 1], [2, 1, 2, 1]], "T-conv")


def captured_run(fn, capture):
    """Run ``fn`` under a fresh obs registry; return ``(out, run)`` where
    ``run`` is ``(sim_results, snapshots, metrics)`` over every simulator
    ``fn`` built (needs :func:`install_capture` active)."""
    before = len(capture)
    out, metrics = observed(fn)
    sims = capture[before:]
    return out, (
        _results(out),
        [sim.store.snapshot() for sim in sims],
        metrics,
    )


def _results(out):
    passes = getattr(out, "passes", None)
    return [r.sim for r in passes] if passes is not None else [out.sim]


def model_machine_run(backend, expansion, rng, capture):
    """A 4-point, 3-tap convolution on the model machine, with initial
    accumulator words; returns ``((z_words, outputs, dropped_bits,
    max_summands), run)``."""
    n_pts, taps, p = 4, 3, 3
    w = [rng.randrange(1 << p) for _ in range(taps)]
    sig = [rng.randrange(1 << p) for _ in range(n_pts + taps - 1)]
    xw, yw = {}, {}
    for j1 in range(1, n_pts + 1):
        for j2 in range(1, taps + 1):
            xw[(j1, j2)] = w[j2 - 1]
            yw[(j1, j2)] = sig[j1 + j2 - 2]
    z0 = {(j1, 1): rng.randrange(1 << (2 * p - 1)) for j1 in (1, 3)}
    machine = BitLevelModelMachine(
        [1, 0], [1, -1], [0, 1], [1, 1], [n_pts, taps], p, CONV_T,
        expansion, backend=backend,
    )
    out, run = captured_run(lambda: machine.run(xw, yw, z0), capture)
    assert out.outputs == machine.reference(xw, yw, z0)
    return (out.z_words, out.outputs, out.dropped_bits, out.max_summands), run


def partitioned_run(backend, expansion, rng, capture, monkeypatch):
    """Matmul streamed through a depth-2 array in passes (``z`` words
    carried between passes as ``z_init``) plus an initial accumulator."""
    u, depth, p = 2, 5, 3
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    x = [[rng.randrange(1 << p) for _ in range(depth)] for _ in range(u)]
    y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(depth)]
    xw, yw = {}, {}
    for j1 in range(1, u + 1):
        for j2 in range(1, u + 1):
            for j3 in range(1, depth + 1):
                xw[(j1, j2, j3)] = x[j1 - 1][j3 - 1]
                yw[(j1, j2, j3)] = y[j3 - 1][j2 - 1]
    z0 = {(j1, j2, 1): rng.randrange(1 << (2 * p - 1))
          for j1 in range(1, u + 1) for j2 in range(1, u + 1)}
    machine = PartitionedModelMachine(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [u, u, depth], p,
        designs.fig4_mapping(p), 2, expansion,
    )
    out, run = captured_run(lambda: machine.run(xw, yw, z0), capture)
    assert out.outputs == machine.reference(xw, yw, z0)
    return out.outputs, run


def chain_words(h, lowers, uppers, rng, top):
    """Random words constant along the ``h`` chains of the box."""
    words = {}
    ranges = (range(lo, hi + 1) for lo, hi in zip(lowers, uppers))
    for j in itertools.product(*ranges):  # a chain predecessor comes first
        src = tuple(a - b for a, b in zip(j, h))
        words[j] = words[src] if src in words else rng.randrange(top)
    return words


def word_model_run(case, t, backend, seed, capture):
    """A generator ``kind="word"`` draw on the word-level model machine,
    with operands constant along their chains and initial words at some
    chain starts."""
    rng = random.Random(seed)
    p = 3
    lowers, uppers = case.lowers, case.uppers
    xw = chain_words(case.h1, lowers, uppers, rng, 1 << p)
    yw = chain_words(case.h2, lowers, uppers, rng, 1 << p)
    z0 = {j: rng.randrange(100) for j in list(xw)[::3]}
    machine = WordLevelModelMachine(
        case.h1, case.h2, case.h3, lowers, uppers, p, t, backend=backend,
    )
    return captured_run(lambda: machine.run(xw, yw, z0), capture)


# ---------------------------------------------------------------------------
# Random feasible mappings from the verification generator
# ---------------------------------------------------------------------------

N_RANDOM_MAPPINGS = 20


def feasible_cases(seed, count=N_RANDOM_MAPPINGS, max_attempts=400):
    """Draw generator mapping cases until ``count`` are feasible."""
    rng = random.Random(seed)
    out = []
    for _ in range(max_attempts):
        if len(out) >= count:
            break
        case = gen_mapping_case(rng)
        try:
            alg, binding, t, prims = case.build()
            rep = check_feasibility(t, alg, binding, prims)
        except Exception:
            continue
        if rep.feasible:
            out.append((case, alg, binding, t))
    assert len(out) >= count, (
        f"generator produced only {len(out)} feasible mappings; "
        f"loosen the draw budget"
    )
    return out


def assert_word_mappings_equivalent(seed, capture):
    """The word-level model machine on every ``kind="word"`` draw among
    the feasible mappings of seed ``seed``: the pointwise oracle, a
    compiled run that compiles cold, and a second compiled run replayed
    from the memoized program."""
    cases = [
        (case, t) for case, _, _, t in feasible_cases(seed=seed)
        if case.kind == "word"
    ]
    assert len(cases) >= 5
    for k, (case, t) in enumerate(cases):
        clear_program_memo()
        out_pw, ref = word_model_run(case, t, "pointwise", k, capture)
        for leg in ("cold", "warm"):
            out_c, got = word_model_run(case, t, "compiled", k, capture)
            assert out_pw.z_words == out_c.z_words
            assert_runs_match(
                ref, got, f"word model {case.h1, case.h2, case.h3} "
                          f"mapping {t.rows} ({leg})",
            )
