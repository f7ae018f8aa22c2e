"""Canonical fingerprints for cacheable analysis inputs.

A cache key must change whenever anything that can change the result
changes, and *should* coincide for inputs that provably yield the same
result.  :func:`analysis_key` keys a whole program instance: loop-index
and statement names are erased (subscripts become coefficient rows over
the positional index order), symbolic offsets/bounds/guard values are
evaluated under the concrete binding (so ``p`` vs ``q`` as a parameter
name cannot split the cache), and array names are kept verbatim because
they appear in the result.  Method, screen setting and backend are part
of the key: the scalar and symbolic routes return the same instances but
different ``stats``, so each backend reads back its own entry.

Inputs with no exact canonical form (unknown condition subclasses, unbound
parameters) raise :class:`Uncacheable`; callers skip the cache and compute.
"""

from __future__ import annotations

import hashlib
import json

from repro.cache.serde import Unserializable, condition_to_payload
from repro.depanalysis.pairs import PointSet
from repro.structures.conditions import And, Eq, Ne, Not, Or, _False, _True

__all__ = [
    "Uncacheable",
    "fingerprint",
    "analysis_key",
    "symbolic_key",
]


class Uncacheable(ValueError):
    """The input has no canonical key; compute without the cache."""


def fingerprint(payload) -> str:
    """SHA-256 over the canonical (sorted-key, compact) JSON of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _guard_payload(cond, binding) -> list:
    """Condition payload with parameter values evaluated under ``binding``."""
    try:
        if isinstance(cond, _True):
            return ["true"]
        if isinstance(cond, _False):
            return ["false"]
        if isinstance(cond, Eq):
            return ["eq", cond.axis, cond.value.evaluate(binding)]
        if isinstance(cond, Ne):
            return ["ne", cond.axis, cond.value.evaluate(binding)]
        if isinstance(cond, And):
            return ["and", sorted(_guard_payload(t, binding) for t in cond.terms)]
        if isinstance(cond, Or):
            return ["or", sorted(_guard_payload(t, binding) for t in cond.terms)]
        if isinstance(cond, Not):
            return ["not", _guard_payload(cond.term, binding)]
        if isinstance(cond, PointSet):
            return ["points", sorted(list(pt) for pt in cond.points), cond.offset]
    except KeyError as exc:  # unbound parameter
        raise Uncacheable(f"guard mentions unbound parameter: {exc}") from exc
    raise Uncacheable(f"guard condition {type(cond).__name__} has no canonical form")


def _access_payload(access, order, binding) -> dict:
    try:
        return {
            "array": access.array,
            "rows": [e.coeff_vector(order) for e in access.subscripts],
            "offsets": [e.offset.evaluate(binding) for e in access.subscripts],
        }
    except KeyError as exc:
        raise Uncacheable(f"subscript mentions unbound parameter: {exc}") from exc


def analysis_key(
    program, binding, method: str, use_screens: bool, backend: str
) -> str:
    """Content-address one ``analyze()`` call (program instance, method,
    screen setting and resolved backend)."""
    try:
        bounds = program.index_set.bounds(binding)
    except KeyError as exc:
        raise Uncacheable(f"bounds mention unbound parameter: {exc}") from exc
    order = program.index_names
    payload = {
        "kind": "analysis",
        "method": method,
        # The enumerate method never screens and always runs the scalar
        # hash-join; canonicalize so every flag and backend value hits the
        # same entry there.
        "use_screens": bool(use_screens) if method == "exact" else True,
        "backend": backend if method == "exact" else "scalar",
        "bounds": [[lo, hi] for lo, hi in bounds],
        "statements": [
            {
                "write": _access_payload(s.write, order, binding),
                "reads": [_access_payload(r, order, binding) for r in s.reads],
                "guard": _guard_payload(s.guard, binding),
            }
            for s in program.statements
        ],
    }
    return fingerprint(payload)


def symbolic_key(program) -> str:
    """Content-address one symbolic (parametric) analysis.

    Unlike :func:`analysis_key`, nothing is evaluated: bounds, subscript
    offsets, and guard values are serialized as linear expressions, so the
    key identifies the whole *family* of program instances over the free
    parameters.  Parameter names are part of the key (a result for ``u``
    cannot answer a program phrased over ``v``), which matches how the
    cached closed forms are instantiated by name.
    """
    from repro.cache.serde import linexpr_to_payload

    order = program.index_names

    def access(a) -> dict:
        return {
            "array": a.array,
            "rows": [e.coeff_vector(order) for e in a.subscripts],
            "offsets": [linexpr_to_payload(e.offset) for e in a.subscripts],
        }

    try:
        payload = {
            "kind": "symbolic",
            "bounds": [
                [linexpr_to_payload(lo), linexpr_to_payload(hi)]
                for lo, hi in zip(
                    program.index_set.lowers, program.index_set.uppers
                )
            ],
            "statements": [
                {
                    "write": access(s.write),
                    "reads": [access(r) for r in s.reads],
                    "guard": condition_to_payload(s.guard),
                }
                for s in program.statements
            ],
        }
    except Unserializable as exc:
        raise Uncacheable(str(exc)) from exc
    return fingerprint(payload)
