"""Oracle: bit-level machine executions vs. word-level reference products.

For one random operand set, run the full space-time machine (bit-level
lattice on a paper design, the word-level systolic baseline, the signed
coefficient-splitting driver, or the Baugh-Wooley signed multiplier) and
compare against an independently computed reference product -- a numpy
``object``-dtype matmul.  The bit-level modes also cross-check the
simulator's measured makespan against the closed-form
:func:`repro.mapping.schedule.execution_time` of the design's schedule.
"""

from __future__ import annotations

import random

import numpy as _np

from repro.verify.generator import SimulatorCase, SizeEnvelope, gen_simulator_case

__all__ = ["NAME", "generate", "check", "reference_matmul"]

NAME = "simulator"


def generate(rng: random.Random, envelope: SizeEnvelope) -> SimulatorCase:
    return gen_simulator_case(rng, envelope)


def reference_matmul(x, y, modulus: int | None = None) -> list[list[int]]:
    """Exact word-level ``X·Y`` (optionally mod ``modulus``).

    Uses numpy with ``object`` dtype (arbitrary-precision Python ints
    inside the array, so no silent wraparound).
    """
    z = _np.array(x, dtype=object) @ _np.array(y, dtype=object)
    out = [[int(v) for v in row] for row in z.tolist()]
    if modulus is not None:
        out = [[v % modulus for v in row] for row in out]
    return out


def _design_mapping(case: SimulatorCase):
    from repro.mapping import designs

    if case.design == "fig5":
        return designs.fig5_mapping(case.p)
    return designs.fig4_mapping(case.p)


def check(case: SimulatorCase, backend: str | None = None) -> str | None:
    """Return a mismatch description, or ``None`` on exact agreement.

    ``backend`` selects the simulator engine for the machine-backed modes
    (``None`` defers to :func:`repro.machine.simulator.default_backend`,
    i.e. the ``REPRO_SIM_BACKEND`` environment variable in fuzz jobs); the
    compiled backend routes every mode through the per-design compiled
    programs.
    """
    if case.mode == "baughwooley":
        from repro.arith.baughwooley import BaughWooleyMultiplier

        multiplier = BaughWooleyMultiplier(case.p)
        got = multiplier.multiply(case.a, case.b)
        want = case.a * case.b
        if got != want:
            return (
                f"BaughWooley({case.p}).multiply({case.a}, {case.b}) = "
                f"{got}, expected {want}"
            )
        batch = multiplier.multiply_block([case.a], [case.b])
        if int(batch[0]) != want:
            return (
                f"BaughWooley({case.p}).multiply_block([{case.a}], "
                f"[{case.b}]) = {int(batch[0])}, expected {want}"
            )
        return None

    if case.mode == "word":
        from repro.machine.wordlevel import WordLevelMatmulMachine

        machine = WordLevelMatmulMachine(
            case.u, case.p, case.arithmetic, backend=backend
        )
        run = machine.run([list(r) for r in case.x], [list(r) for r in case.y])
        want = reference_matmul(case.x, case.y)
        if run.product != want:
            return (
                f"word-level machine ({case.arithmetic}) product "
                f"{run.product} != reference {want}"
            )
        return None

    # Bit-level modes share the machine; build it once.
    from repro.machine.bitlevel import BitLevelMatmulMachine
    from repro.mapping.schedule import execution_time

    t = _design_mapping(case)
    machine = BitLevelMatmulMachine(
        case.u, case.p, t, case.expansion, backend=backend
    )
    modulus = 1 << (2 * case.p - 1)

    if case.mode == "signed":
        from repro.machine.signed import signed_matmul

        got = signed_matmul(
            lambda a, b: machine.run(a, b).product,
            [list(r) for r in case.x],
            [list(r) for r in case.y],
            modulus=modulus,
        )
        want = reference_matmul(case.x, case.y)
        if got != want:
            return (
                f"signed coefficient-split product {got} != reference "
                f"{want} (design {case.design}, expansion {case.expansion})"
            )
        return None

    run = machine.run([list(r) for r in case.x], [list(r) for r in case.y])
    want = reference_matmul(case.x, case.y, modulus=modulus)
    if run.product != want:
        return (
            f"bit-level product {run.product} != reference (mod 2^"
            f"{2 * case.p - 1}) {want} (design {case.design}, "
            f"expansion {case.expansion})"
        )
    expected_makespan = execution_time(
        t.schedule, machine.algorithm, machine.binding
    )
    if run.sim.makespan != expected_makespan:
        return (
            f"measured makespan {run.sim.makespan} != closed-form "
            f"execution time {expected_makespan} (design {case.design}, "
            f"u={case.u}, p={case.p})"
        )
    return None
