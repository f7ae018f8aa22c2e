"""Oracle: the default exact-analysis route vs. the scalar reference.

For one random expanded bit-level program, run
:func:`repro.depanalysis.analyze` with ``method="exact"`` on the default
route (``backend="symbolic"``: the closed form, instantiated at the
binding), and the scalar reference for the case's method
(``backend="scalar"``: the Diophantine analyzer for ``exact`` cases, the
hash-join for ``enumerate`` cases), with the persistent cache disabled on
both sides.  The two must return the same ordered list of dependence
instances and agree on the route-independent counters, ``pairs_tested``
(when both report it) and ``instances``.  Any divergence is a bug in one
of the two implementations.
"""

from __future__ import annotations

import random

from repro.verify.generator import AnalysisCase, SizeEnvelope, gen_analysis_case

__all__ = ["NAME", "generate", "check"]

NAME = "analysis"


def generate(rng: random.Random, envelope: SizeEnvelope) -> AnalysisCase:
    return gen_analysis_case(rng, envelope)


def check(case: AnalysisCase) -> str | None:
    """Return a divergence description, or ``None`` when the routes agree."""
    from repro.depanalysis.analyzer import analyze
    from repro.depanalysis.engine import SHARED_STATS, AnalysisConfig

    program = case.build_program()
    binding = {"p": case.p}
    got = analyze(
        program, binding, method="exact", use_screens=case.use_screens,
        config=AnalysisConfig(backend="symbolic", cache=False),
    )
    want = analyze(
        program, binding, method=case.method, use_screens=case.use_screens,
        config=AnalysisConfig(backend="scalar", cache=False),
    )
    g_keys = [inst.key() for inst in got.instances]
    w_keys = [inst.key() for inst in want.instances]
    if g_keys != w_keys:
        only_g = sorted(set(g_keys) - set(w_keys))
        only_w = sorted(set(w_keys) - set(g_keys))
        return (
            f"instance divergence (exact vs scalar {case.method}): "
            f"{len(g_keys)} default vs {len(w_keys)} scalar; "
            f"default-only (first 3): {only_g[:3]}; "
            f"scalar-only (first 3): {only_w[:3]}"
        )
    diff = {
        k: (got.stats[k], want.stats[k])
        for k in SHARED_STATS
        if k in want.stats and got.stats.get(k) != want.stats[k]
    }
    if diff:
        return (
            f"stats divergence (exact vs scalar {case.method}): "
            f"default vs scalar {diff}"
        )
    return None
