"""The stable top-level API: four verbs, one result contract.

``repro.analyze``, ``repro.search_designs``, ``repro.simulate`` and
``repro.verify_run`` are the supported, stability-guaranteed entry
points for the four things this library does.  The first two are the
engines' native calls (re-exported here unchanged); the last two are
thin wrappers that route through the unified job dispatch
(:mod:`repro.serve.dispatch`), so a library call, a CLI run, and an
HTTP job produce the same :class:`~repro.serve.jobs.JobResult` down to
the rendered ``output`` text.
"""

from __future__ import annotations

from repro.depanalysis import AnalysisConfig, analyze
from repro.mapping import SearchConfig, search_designs

__all__ = [
    "AnalysisConfig",
    "SearchConfig",
    "analyze",
    "analyze_symbolic",
    "search_designs",
    "simulate",
    "verify_run",
]


def analyze_symbolic(
    u: int = 3,
    p: int = 3,
    *,
    expansion: str = "II",
    cache: bool | None = None,
    cache_dir: str | None = None,
):
    """Parametric dependence analysis of bit-level matmul; returns a JobResult.

    Solves the dependence structure once with ``u`` and ``p`` kept free
    (:func:`repro.symbolic.analyze_symbolic` on the expanded program),
    then instantiates the closed form at the given concrete sizes --
    O(1) in ``u`` and ``p``, so arbitrarily large instances answer in
    milliseconds.  ``.data`` carries the instance count, distinct
    vectors, per-kind totals and the solve/instantiate timings; the
    CLI-equal rendering (``repro analyze --symbolic``) is in ``.output``.

    For symbolic analysis of an arbitrary loop nest (rather than the
    matmul family at concrete sizes), call
    :func:`repro.symbolic.analyze_symbolic` directly.
    """
    from repro.serve.dispatch import run_job
    from repro.serve.jobs import JobSpec

    return run_job(
        JobSpec(
            kind="analyze_symbolic", u=u, p=p, expansion=expansion,
            cache=cache, cache_dir=cache_dir,
        )
    )


def simulate(
    u: int = 3,
    p: int = 3,
    *,
    design: str = "fig4",
    seed: int = 0,
    backend: str | None = None,
    gantt: bool = False,
):
    """Simulate a bit-level matmul design end to end; returns a JobResult.

    Builds the ``design`` mapping (``"fig4"`` or ``"fig5"``), runs the
    systolic simulator on a seeded random ``u x u`` problem with
    ``p``-bit operands, and checks the product bit-exactly.  The
    returned :class:`~repro.serve.jobs.JobResult` carries the CLI-equal
    rendering in ``.output`` and the structured summary (makespan,
    processor count, utilization, correctness) in ``.data``.
    """
    from repro.serve.dispatch import run_job
    from repro.serve.jobs import JobSpec

    return run_job(
        JobSpec(
            kind="simulate", u=u, p=p, design=design, seed=seed,
            sim_backend=backend, gantt=gantt,
        )
    )


def verify_run(
    *,
    seed: int = 0,
    cases: int | None = None,
    budget_s: float | None = None,
    oracles=None,
):
    """Run the differential verification oracles; returns a JobResult.

    ``budget_s`` is the verify subsystem's own oracle budget
    (:class:`~repro.verify.runner.VerifyConfig` ``budget_s``); the
    report is in ``.data`` and its human summary in ``.output``.
    """
    from repro.serve.dispatch import run_job
    from repro.serve.jobs import JobSpec

    return run_job(
        JobSpec(
            kind="verify", seed=seed, cases=cases, oracle_budget_s=budget_s,
            oracles=None if oracles is None else tuple(oracles),
        )
    )
