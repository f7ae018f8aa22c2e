"""Exact JSON serialization for cached artifacts.

A cache hit must be indistinguishable from a recomputation, so every
round-trip here is *exact*: the decoded object equals (and hashes equal
to) what the miss path would have built.  Two families are covered:

* the dependence-analysis result types
  (:class:`~repro.depanalysis.pairs.AnalysisResult` with its
  :class:`~repro.depanalysis.pairs.DependenceInstance` tuple and stats);
* the symbolic atoms (:class:`LinExpr` and the condition algebra
  including extensional :class:`PointSet`\\ s), which
  :mod:`repro.symbolic.serde` and :func:`repro.cache.keys.symbolic_key`
  build on.

Objects that cannot be represented exactly (an unknown condition
subclass) raise :class:`Unserializable`; callers treat that as "skip the
cache".
"""

from __future__ import annotations

from repro.depanalysis.pairs import AnalysisResult, DependenceInstance, PointSet
from repro.structures.conditions import (
    And,
    Condition,
    Eq,
    FALSE,
    Ne,
    Not,
    Or,
    TRUE,
    _False,
    _True,
)
from repro.structures.params import LinExpr

__all__ = [
    "Unserializable",
    "linexpr_to_payload",
    "linexpr_from_payload",
    "condition_to_payload",
    "condition_from_payload",
    "analysis_result_to_payload",
    "analysis_result_from_payload",
]


class Unserializable(TypeError):
    """The object has no exact JSON form; the caller must skip the cache."""


# ---------------------------------------------------------------------------
# Symbolic atoms
# ---------------------------------------------------------------------------

def linexpr_to_payload(expr: LinExpr) -> list:
    return [expr.const, [[name, c] for name, c in expr.coeffs]]


def linexpr_from_payload(payload) -> LinExpr:
    const, coeffs = payload
    return LinExpr(const, {name: c for name, c in coeffs})


def condition_to_payload(cond: Condition) -> list:
    if isinstance(cond, _True):
        return ["true"]
    if isinstance(cond, _False):
        return ["false"]
    if isinstance(cond, Eq):
        return ["eq", cond.axis, linexpr_to_payload(cond.value)]
    if isinstance(cond, Ne):
        return ["ne", cond.axis, linexpr_to_payload(cond.value)]
    if isinstance(cond, And):
        return ["and", [condition_to_payload(t) for t in cond.terms]]
    if isinstance(cond, Or):
        return ["or", [condition_to_payload(t) for t in cond.terms]]
    if isinstance(cond, Not):
        return ["not", condition_to_payload(cond.term)]
    if isinstance(cond, PointSet):
        return ["points", sorted(list(pt) for pt in cond.points), cond.offset]
    raise Unserializable(f"cannot encode condition {type(cond).__name__}")


def condition_from_payload(payload) -> Condition:
    tag = payload[0]
    if tag == "true":
        return TRUE
    if tag == "false":
        return FALSE
    if tag == "eq":
        return Eq(payload[1], linexpr_from_payload(payload[2]))
    if tag == "ne":
        return Ne(payload[1], linexpr_from_payload(payload[2]))
    if tag == "and":
        return And(*(condition_from_payload(t) for t in payload[1]))
    if tag == "or":
        return Or(*(condition_from_payload(t) for t in payload[1]))
    if tag == "not":
        return Not(condition_from_payload(payload[1]))
    if tag == "points":
        return PointSet(payload[1], offset=payload[2])
    raise Unserializable(f"unknown condition tag {tag!r}")


# ---------------------------------------------------------------------------
# Analysis results
# ---------------------------------------------------------------------------

def analysis_result_to_payload(result: AnalysisResult) -> dict:
    return {
        "instances": [
            [list(i.sink), list(i.vector), i.variable, i.kind]
            for i in result.instances
        ],
        "stats": dict(result.stats),
    }


def analysis_result_from_payload(payload) -> AnalysisResult:
    instances = [
        DependenceInstance(sink, vector, variable, kind)
        for sink, vector, variable, kind in payload["instances"]
    ]
    return AnalysisResult(instances, dict(payload["stats"]))
