"""Shared plumbing for the backend-equivalence suites.

``tests/test_wavefront_equivalence.py`` and
``tests/test_compiled_equivalence.py`` both compare the ``compiled``
backend against the ``pointwise`` reference.  The machines build their
simulator internally, so store snapshots and PE firings are grabbed by
substituting a recording :class:`SpaceTimeSimulator` subclass.
"""

from __future__ import annotations

import random

from repro import obs
from repro.arith.baughwooley import BaughWooleyMultiplier
from repro.machine import bitlevel as bitlevel_mod
from repro.machine import wordlevel as wordlevel_mod
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.model import BitLevelModelMachine
from repro.machine.signed import signed_matmul
from repro.machine.simulator import SpaceTimeSimulator
from repro.machine.wordlevel import WordLevelMatmulMachine
from repro.mapping import check_feasibility, designs
from repro.mapping.transform import MappingMatrix
from repro.verify.generator import gen_mapping_case
from tests.conftest import random_matrix, reference_matmul


class CaptureSimulator(SpaceTimeSimulator):
    instances: list[SpaceTimeSimulator] = []

    def run(self, compute, kernel=None):
        type(self).instances.append(self)
        return super().run(compute, kernel)


class GenericPathSimulator(CaptureSimulator):
    """Drops the machine's kernel: the compiled backend then runs the
    per-point ``compute`` through its generic path."""

    def run(self, compute, kernel=None):
        return super().run(compute, None)


def install_capture(monkeypatch) -> list[SpaceTimeSimulator]:
    """Patch the machine modules to record every simulator they build."""
    CaptureSimulator.instances = []
    monkeypatch.setattr(bitlevel_mod, "SpaceTimeSimulator", CaptureSimulator)
    monkeypatch.setattr(wordlevel_mod, "SpaceTimeSimulator", CaptureSimulator)
    return CaptureSimulator.instances


def use_generic_path(monkeypatch) -> None:
    """From now on, bit-level machines run without their kernel."""
    monkeypatch.setattr(bitlevel_mod, "SpaceTimeSimulator", GenericPathSimulator)


def observed(fn):
    """Run ``fn`` under a fresh obs registry; return (result, metrics)."""
    with obs.collecting() as reg:
        out = fn()
    return out, obs.metrics_dict(reg)


def firings(sim):
    return {pos: dict(pe.firings) for pos, pe in sim.pes.items()}


def assert_runs_match(ref, got, label):
    """Each run is ``(sim_result, snapshot, metrics, firings)``."""
    assert ref[0] == got[0], f"{label}: SimulationResult diverged"
    assert ref[1] == got[1], f"{label}: store contents diverged"
    assert ref[2]["counters"] == got[2]["counters"], f"{label}: counters diverged"
    assert ref[2]["gauges"] == got[2]["gauges"], f"{label}: gauges diverged"
    assert ref[3] == got[3], f"{label}: PE firing records diverged"


def bitlevel_run(u, p, mapping, expansion, backend, x, y, capture):
    """One bit-level matmul run; needs :func:`install_capture` active."""
    machine = BitLevelMatmulMachine(u, p, mapping, expansion, backend=backend)
    out, metrics = observed(lambda: machine.run(x, y))
    sim = capture[-1]
    return out, (out.sim, sim.store.snapshot(), metrics, firings(sim))


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
# Generic model-(3.5) machine (convolution mapping -> generic path)
# ---------------------------------------------------------------------------

CONV_T = MappingMatrix([[3, 0, 1, 0], [0, 0, 0, 1], [2, 1, 2, 1]], "T-conv")


def model_machine_run(backend, expansion, rng):
    """A 4-point, 3-tap convolution on the model machine; returns
    ``((z_words, outputs, dropped_bits), (sim_result, metrics))``."""
    n_pts, taps, p = 4, 3, 3
    w = [rng.randrange(1 << p) for _ in range(taps)]
    sig = [rng.randrange(1 << p) for _ in range(n_pts + taps - 1)]
    xw, yw = {}, {}
    for j1 in range(1, n_pts + 1):
        for j2 in range(1, taps + 1):
            xw[(j1, j2)] = w[j2 - 1]
            yw[(j1, j2)] = sig[j1 + j2 - 2]
    machine = BitLevelModelMachine(
        [1, 0], [1, -1], [0, 1], [1, 1], [n_pts, taps], p, CONV_T,
        expansion, backend=backend,
    )
    out, metrics = observed(lambda: machine.run(xw, yw))
    assert out.outputs == machine.reference(xw, yw)
    return (out.z_words, out.outputs, out.dropped_bits), (out.sim, metrics)


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


def generic_compute(alg, binding):
    """A deterministic per-point computation exercising every dependence:
    read each (valid) source along its cause variables, fold, write every
    cause variable once at the firing point."""
    deps = list(alg.dependences)

    def compute(q, store):
        total = sum((i + 1) * v for i, v in enumerate(q)) % 17
        written = []
        for k, dep in enumerate(deps):
            causes = dep.causes or (f"d{k}",)
            for var in causes:
                if var not in written:
                    written.append(var)
            if not dep.valid_at(q, binding):
                continue
            src = tuple(a - b for a, b in zip(q, dep.vector))
            for var in causes:
                total += store.get(var, src, 0)
        for var in written:
            store.put(var, q, total % 251)

    return compute


def generic_run(alg, binding, t, backend):
    """Simulate ``generic_compute`` directly; returns a comparable run."""
    compute = generic_compute(alg, binding)
    with obs.collecting() as reg:
        sim = SpaceTimeSimulator(t, alg, binding, backend=backend)
        result = sim.run(compute)
    return (result, sim.store.snapshot(), obs.metrics_dict(reg), firings(sim))
