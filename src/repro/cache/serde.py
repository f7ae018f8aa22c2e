"""Exact JSON serialization for cached artifacts.

A cache hit must be indistinguishable from a recomputation, so every
round-trip here is *exact*: the decoded object equals (and hashes equal
to) what the miss path would have built.  Two families are covered:

* the dependence-analysis result
  (:class:`~repro.depanalysis.pairs.AnalysisResult`: its row table as one
  base64 array, its three key tuples and its stats);
* the symbolic atoms (:class:`LinExpr` and the condition algebra
  including extensional :class:`PointSet`\\ s), which
  :mod:`repro.symbolic.serde` and :func:`repro.cache.keys.symbolic_key`
  build on.

Objects that cannot be represented exactly (an unknown condition
subclass) raise :class:`Unserializable`; callers treat that as "skip the
cache".
"""

from __future__ import annotations

import base64

import numpy as np

from repro.depanalysis.pairs import AnalysisResult, PointSet
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

#: the row dtypes a payload may use, narrowest first (little-endian signed)
_ROW_DTYPES = tuple(np.dtype(t) for t in ("i1", "<i2", "<i4", "<i8"))


def analysis_result_to_payload(result: AnalysisResult) -> dict:
    """The result's row table as one base64 array of the narrowest
    little-endian signed dtype that holds it, plus its three key tuples
    and its stats (in insertion order)."""
    rows = result.rows
    lo, hi = (int(rows.min()), int(rows.max())) if rows.size else (0, 0)
    dtype = next(
        dt for dt in _ROW_DTYPES
        if np.iinfo(dt).min <= lo and hi <= np.iinfo(dt).max
    )
    raw = rows.astype(dtype).tobytes()
    return {
        "dtype": dtype.str,
        "shape": list(rows.shape),
        "rows": base64.b64encode(raw).decode("ascii"),
        "vectors": [list(v) for v in result.vectors],
        "variables": list(result.variables),
        "kinds": list(result.kinds),
        "stats": dict(result.stats),
    }


def _sorted_keys(items, valid) -> tuple:
    """``items`` as a tuple, when each is ``valid`` and the tuple is
    strictly ascending (sorted, duplicate-free); else a ``ValueError``."""
    items = tuple(items)
    if not all(valid(x) for x in items) or any(
        a >= b for a, b in zip(items, items[1:])
    ):
        raise ValueError("analysis entry: key tuple not sorted or malformed")
    return items


def analysis_result_from_payload(payload) -> AnalysisResult:
    """Decode :func:`analysis_result_to_payload`'s form, checking it.

    The byte length must match the shape and dtype, every index must
    name an entry of its tuple (and every entry be named), and the rows
    must be strictly ascending.  Any other shape, an older row-list entry
    included, raises ``ValueError`` (or ``KeyError``/``TypeError``), the
    caller's cue to recompute and overwrite.
    """
    dtype = np.dtype(payload["dtype"])
    if dtype not in _ROW_DTYPES:
        raise ValueError(f"analysis entry: row dtype {dtype} not allowed")
    shape = payload["shape"]
    if (len(shape) != 2 or not all(type(x) is int for x in shape)
            or shape[0] < 0 or shape[1] < 3):
        raise ValueError(f"analysis entry: bad shape {shape!r}")
    raw = base64.b64decode(payload["rows"], validate=True)
    if len(raw) != shape[0] * shape[1] * dtype.itemsize:
        raise ValueError(
            f"analysis entry: {len(raw)} bytes for shape {shape} of {dtype}"
        )
    rows = np.frombuffer(raw, dtype).reshape(shape).astype(np.int64)
    dim = shape[1] - 3
    vectors = _sorted_keys(
        (tuple(v) for v in payload["vectors"]),
        lambda v: len(v) == dim and all(type(x) is int for x in v),
    )
    variables = _sorted_keys(payload["variables"], lambda x: type(x) is str)
    kinds = _sorted_keys(payload["kinds"], lambda x: type(x) is str)
    for column, keys in zip(range(dim, dim + 3), (vectors, variables, kinds)):
        index = rows[:, column]
        if index.size and (index.min() < 0 or index.max() >= len(keys)):
            raise ValueError(
                f"analysis entry: column {column} indexes past its "
                f"{len(keys)} keys"
            )
        if not np.bincount(index, minlength=len(keys)).all():
            raise ValueError(
                f"analysis entry: a key of column {column} names no row"
            )
    differ = rows[1:] != rows[:-1]
    first = differ.argmax(axis=1)
    at = np.arange(len(first))
    if not (differ.any(axis=1).all()
            and (rows[1:][at, first] > rows[:-1][at, first]).all()):
        raise ValueError("analysis entry: rows not strictly ascending")
    stats = payload["stats"]
    if not isinstance(stats, dict):
        raise ValueError("analysis entry: stats is not an object")
    return AnalysisResult(rows, vectors, variables, kinds, stats)
