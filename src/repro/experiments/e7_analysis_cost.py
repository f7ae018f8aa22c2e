"""E7 -- Sections 1/3: the cost of general analysis vs Theorem 3.1.

The paper's motivation: general dependence analysis "involve[s] finding all
integer solutions of a set of linear Diophantine equations, followed by a
verification to see if the integer solutions are inside the index set", with
exponential worst-case cost in the loop depth -- whereas the compositional
construction touches a constant number of symbols.

This harness measures both on the *same* task (deriving the bit-level
dependence structure of the expanded matmul program):

* wall time and verification-candidate counts of the exact analyzer as
  ``u`` and ``p`` grow (the index set has ``u³p²`` points; the analyzer's
  candidate space grows accordingly);
* wall time of Theorem 3.1's composition (flat, independent of ``u``, ``p``);
* equality of the two results (the speed is not bought with wrong answers).

Timing uses :mod:`repro.obs` spans -- the same substrate every other layer
reports through -- so the cost table and any ``--metrics-out`` run measure
with one mechanism; the registry's metrics dict is returned alongside the
table rows.
"""

from __future__ import annotations

from repro import obs
from repro.depanalysis import AnalysisConfig, analyze
from repro.expansion.theorem31 import matmul_bit_level
from repro.expansion.verify import effective_edges
from repro.experiments.tables import format_table
from repro.ir.expand import expand_bit_level

__all__ = ["run", "report"]

_MATMUL_H = ([0, 1, 0], [1, 0, 0], [0, 0, 1])


def run(
    cases: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 2), (3, 3)),
    verify: bool = True,
) -> dict:
    """Time both derivations per ``(u, p)`` and check they agree.

    The general-analysis column is the scalar Diophantine analyzer (the
    paper's baseline, whose ``candidates_verified`` it reports), with the
    persistent cache disabled so it always measures a real analysis run.
    """
    reg = obs.get_registry() or obs.Registry()
    config = AnalysisConfig(backend="scalar", cache=False)
    rows = []
    all_ok = True
    for u, p in cases:
        h1, h2, h3 = _MATMUL_H
        program = expand_bit_level(h1, h2, h3, [1, 1, 1], [u, u, u], p, "II")

        with reg.span("e7.general_analysis", u=u, p=p) as sp_general:
            result = analyze(program, {"p": p}, method="exact", config=config)
        t_general = sp_general.duration
        reg.observe("e7.general_seconds", t_general)

        with reg.span("e7.theorem31_composition", u=u, p=p) as sp_comp:
            alg = matmul_bit_level(u, p, "II")
        t_comp = sp_comp.duration
        reg.observe("e7.theorem31_seconds", t_comp)

        agree = True
        if verify:
            predicted = effective_edges(alg, {"u": u, "p": p})
            observed = {(i.sink, i.vector) for i in result.instances}
            agree = predicted == observed
        all_ok = all_ok and agree
        rows.append(
            (
                u,
                p,
                u**3 * p**2,
                result.stats["candidates_verified"],
                f"{t_general * 1e3:.1f}",
                f"{t_comp * 1e6:.0f}",
                f"{t_general / t_comp:.0f}x" if t_comp else "inf",
                agree,
            )
        )
    reg.gauge("progress.e7.cases", len(cases))
    return {"rows": rows, "ok": all_ok, "metrics": reg.metrics()}


def report(data: dict | None = None) -> str:
    """Render the E7 table."""
    data = data or run()
    table = format_table(
        ["u", "p", "|J|", "candidates verified", "general (ms)",
         "Theorem 3.1 (µs)", "ratio", "same structure"],
        data["rows"],
        title="E7: general dependence analysis vs Theorem 3.1 composition",
    )
    verdict = (
        "compositional derivation is orders of magnitude cheaper, same result"
        if data["ok"]
        else "RESULT MISMATCH"
    )
    return f"{table}\n=> {verdict}"
