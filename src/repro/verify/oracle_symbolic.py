"""Oracle: the symbolic (parametric) analyzer vs. the concrete analyzer.

For one random program (bit-level matmul with symbolic extents, or a
strided 1-D nest exercising the congruence reasoning), run
:func:`repro.symbolic.analyze_symbolic` once with ``u``/``p`` kept free,
instantiate the result at the case's concrete binding, and demand that it
reproduce the scalar reference (:func:`repro.depanalysis.analyzer.analyze`
with ``backend="scalar"``, which never consults the symbolic solver) on
the same program bit for bit: identical instance keys in identical
order.  The O(1) counting view (``summary``) is cross-checked against the
same reference -- total instances and the distinct-vector set must agree
-- so both the extensional and the closed-form counting paths are covered
by every case.

A program whose system has no linear closed form is a failure here, not a
skip: every case this generator draws is within the symbolic layer's
advertised support.
"""

from __future__ import annotations

import random

from repro.verify.generator import SizeEnvelope, SymbolicCase, gen_symbolic_case

__all__ = ["NAME", "generate", "check"]

NAME = "symbolic"


def generate(rng: random.Random, envelope: SizeEnvelope) -> SymbolicCase:
    return gen_symbolic_case(rng, envelope)


def check(case: SymbolicCase) -> str | None:
    """Return a divergence description, or ``None`` when the layers agree."""
    from repro.depanalysis.analyzer import analyze
    from repro.depanalysis.engine import AnalysisConfig
    from repro.symbolic import SymbolicUnsupported, analyze_symbolic

    program = case.build_program()
    binding = case.binding()
    try:
        symbolic = analyze_symbolic(program, cache=False)
    except SymbolicUnsupported as exc:
        return f"no closed form for a supported program: {exc}"
    want = analyze(
        program, binding, method=case.method,
        config=AnalysisConfig(backend="scalar", cache=False),
    )
    got = symbolic.instantiate(binding)
    g_keys = [inst.key() for inst in got.instances]
    w_keys = [inst.key() for inst in want.instances]
    if g_keys != w_keys:
        only_g = sorted(set(g_keys) - set(w_keys))
        only_w = sorted(set(w_keys) - set(g_keys))
        return (
            f"instance divergence at {binding} ({case.method}): "
            f"{len(g_keys)} symbolic vs {len(w_keys)} exact; "
            f"symbolic-only (first 3): {only_g[:3]}; "
            f"exact-only (first 3): {only_w[:3]}"
        )
    summary = symbolic.summary(binding)
    if summary["instances"] != len(want.instances):
        return (
            f"summary count diverges at {binding}: "
            f"{summary['instances']} counted vs {len(want.instances)} exact"
        )
    want_vectors = sorted({inst.vector for inst in want.instances})
    if summary["distinct_vectors"] != want_vectors:
        return (
            f"distinct vectors diverge at {binding}: "
            f"{summary['distinct_vectors']} vs {want_vectors}"
        )
    return None
