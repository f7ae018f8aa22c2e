"""Canonical fingerprints for cacheable analysis inputs.

A cache key must change whenever anything that can change the result
changes, and *should* coincide for inputs that provably yield the same
result.  Two canonicalizations do the work:

* :func:`analysis_key` keys a whole program instance.  Loop-index and
  statement names are erased (subscripts become coefficient rows over the
  positional index order), symbolic offsets/bounds/guard values are
  evaluated under the concrete binding (so ``p`` vs ``q`` as a parameter
  name cannot split the cache), and array names are kept verbatim because
  they appear in the result.  Method and screen settings are part of the
  key; the *backend* deliberately is not -- scalar and batched engines
  produce bit-identical results, so they share entries.
* :func:`system_key` keys one per-pair subscript system by the row-style
  Hermite normal form of the augmented matrix ``[A | b]``.  Two systems
  with the same HNF generate the same row lattice, hence have identical
  solution sets, so HNF-equal pairs may share one cached Diophantine
  solve and candidate enumeration.

Inputs with no exact canonical form (unknown condition subclasses, unbound
parameters) raise :class:`Uncacheable`; callers skip the cache and compute.
"""

from __future__ import annotations

import hashlib
import json

from repro.cache.serde import (
    Unserializable,
    algorithm_to_payload,
    condition_to_payload,
)
from repro.depanalysis.pairs import PointSet
from repro.structures.conditions import And, Eq, Ne, Not, Or, _False, _True
from repro.util.linalg import hermite_normal_form

__all__ = [
    "Uncacheable",
    "fingerprint",
    "analysis_key",
    "shard_run_key",
    "structure_key",
    "symbolic_key",
    "system_key",
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


def analysis_key(program, binding, method: str, use_screens: bool) -> str:
    """Content-address one ``analyze()`` call (program instance + method)."""
    try:
        bounds = program.index_set.bounds(binding)
    except KeyError as exc:
        raise Uncacheable(f"bounds mention unbound parameter: {exc}") from exc
    order = program.index_names
    payload = {
        "kind": "analysis",
        "method": method,
        # The enumerate method never screens; canonicalize so both flag
        # values hit the same entry there.
        "use_screens": bool(use_screens) if method == "exact" else True,
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


def structure_key(word, arith_name: str, expansion_key: str, p) -> str:
    """Content-address one symbolic Theorem 3.1 composition.

    ``word`` is the word-level :class:`~repro.structures.algorithm.Algorithm`
    (serialized exactly, symbolic bounds and validity conditions included),
    ``arith_name``/``expansion_key`` the registered arithmetic structure and
    expansion, ``p`` the symbolic-or-``None`` stage count.
    """
    try:
        word_payload = algorithm_to_payload(word)
        for vec in word.dependences:
            # Validity must be canonically serializable too (checked above via
            # algorithm_to_payload); nothing extra needed here.
            condition_to_payload(vec.validity)
    except Unserializable as exc:
        raise Uncacheable(str(exc)) from exc
    payload = {
        "kind": "theorem31",
        "word": word_payload,
        "arith": arith_name,
        "expansion": expansion_key,
        "p": None if p is None else repr(p),
    }
    return fingerprint(payload)


def shard_run_key(
    algorithm_name: str,
    dependence_columns,
    bounds,
    primitives,
    config: dict,
    blocks: int,
) -> str:
    """Content key identifying one sharded design-space search run.

    Workers and the coordinator derive the same key from the same inputs,
    so claim ledgers and block results published in a shared store never
    collide across distinct searches -- and a re-run of the identical
    search finds its blocks already published.  The worker count is
    deliberately *not* part of the key: any number of workers cooperates
    on (and reuses) the same run.
    """
    payload = {
        "kind": "search-shard",
        "algorithm": str(algorithm_name),
        "columns": [[int(x) for x in col] for col in dependence_columns],
        "bounds": [[int(lo), int(hi)] for lo, hi in bounds],
        "primitives": (
            None
            if primitives is None
            else [[int(x) for x in row] for row in primitives]
        ),
        "config": {k: config[k] for k in sorted(config)},
        "blocks": int(blocks),
    }
    return fingerprint(payload)


def system_key(a_rows, rhs) -> tuple:
    """In-memory memo key for one subscript system ``A z = b``.

    The row-HNF of ``[A | b]`` identifies the row lattice of the system:
    HNF-equal systems have identical integer solution sets (each one's rows
    are integer combinations of the other's), so they can share one solve.
    """
    if not a_rows:
        return ("sys", 0, tuple(rhs))
    aug = [list(row) + [int(b)] for row, b in zip(a_rows, rhs)]
    h, _u = hermite_normal_form(aug)
    return ("sys", tuple(tuple(r) for r in h if any(r)))
