"""Integer solution lattices and their bounded enumeration.

The exact dependence test solves the subscript system ``A z = b`` (``z``
stacking the source and sink iteration vectors) over the integers, producing
a particular solution plus a lattice basis, and must then *verify* which
lattice points fall inside the iteration-space box.  This module supplies
that verification: :func:`bounded_lattice_points` enumerates all lattice
points of ``particular + B t̄`` lying inside a coordinate box, by interval
constraint propagation (bound tightening) followed by branch-and-prune
enumeration of the ``t̄`` space.

The enumeration is intentionally the honest, classical algorithm: its cost
grows exponentially with the number of free lattice directions -- which for
the programs of the paper equals the loop-nest dimension -- because that is
exactly the cost the paper's Theorem 3.1 avoids.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from repro.util.intmath import ceil_div, floor_div
from repro.util.linalg import hermite_normal_form, integer_rank

__all__ = [
    "bounded_lattice_points",
    "lattice_intervals",
    "reduce_basis",
    "UnboundedLatticeError",
]

_INF = None  # sentinel for an unbounded interval end


class UnboundedLatticeError(ValueError):
    """Raised when the lattice is not confined by the box constraints."""


def reduce_basis(basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """An independent generating set of the lattice spanned by ``basis``.

    A rank-deficient generator set (zero vectors, or linearly dependent
    generators) makes the map ``t̄ -> x`` non-injective: enumerating the
    ``t̄`` box would visit solutions repeatedly -- and the unbounded ``t̄``
    fibers over each ``x`` used to surface as a spurious
    :class:`UnboundedLatticeError`.  The nonzero rows of the row-style
    Hermite normal form generate exactly the same lattice with full row
    rank, so enumeration over them is finite and visits each solution
    exactly once.

    Already-independent bases are returned entry-for-entry unchanged, so
    the ``t̄`` parameterization (and everything downstream of
    :func:`lattice_intervals`) is bit-identical for the non-degenerate
    inputs the Smith-normal-form solver produces.
    """
    rows = [list(r) for r in basis]
    nonzero = [r for r in rows if any(r)]
    if len(nonzero) == len(rows) and (
        not rows or integer_rank(rows) == len(rows)
    ):
        return rows
    if not nonzero:
        return []
    h, _u = hermite_normal_form(nonzero)
    return [row for row in h if any(row)]


def _tighten(
    intervals: list[list],
    rows: list[tuple[list[int], int, int]],
) -> bool:
    """Tighten ``t`` intervals against ``lo <= sum c_k t_k <= hi`` rows.

    Returns ``False`` when a contradiction (empty interval) is detected.
    ``intervals`` entries are mutable pairs ``[lo, hi]`` with ``None`` for
    unbounded ends.
    """
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 10_000:  # defensive: should converge long before this
            break
        for coeffs, lo, hi in rows:
            for k, c in enumerate(coeffs):
                if c == 0:
                    continue
                rest_lo = 0
                rest_hi = 0
                unbounded = False
                for k2, c2 in enumerate(coeffs):
                    if k2 == k or c2 == 0:
                        continue
                    l2, h2 = intervals[k2]
                    if l2 is _INF or h2 is _INF:
                        unbounded = True
                        break
                    a, b = c2 * l2, c2 * h2
                    rest_lo += min(a, b)
                    rest_hi += max(a, b)
                if unbounded:
                    continue
                # lo - rest_hi <= c * t_k <= hi - rest_lo
                if c > 0:
                    new_lo = ceil_div(lo - rest_hi, c)
                    new_hi = floor_div(hi - rest_lo, c)
                else:
                    new_lo = ceil_div(hi - rest_lo, c)
                    new_hi = floor_div(lo - rest_hi, c)
                cur = intervals[k]
                if cur[0] is _INF or new_lo > cur[0]:
                    cur[0] = new_lo
                    changed = True
                if cur[1] is _INF or new_hi < cur[1]:
                    cur[1] = new_hi
                    changed = True
                if cur[0] is not _INF and cur[1] is not _INF and cur[0] > cur[1]:
                    return False
    return True


def _algebraic_bounds(
    rows: list[tuple[list[int], int, int]], m: int
) -> list[list[int]] | None:
    """Explicit ``t̄`` bounds from an invertible row submatrix.

    :func:`_tighten` is one-variable-at-a-time propagation: it can only
    tighten ``t_k`` in a row whose *other* variables already have finite
    intervals, so it stalls completely when every row couples two or more
    still-unbounded variables.  But whenever the coefficient rows span
    ``Q^m`` -- always the case when the lattice basis is linearly
    independent and every touched coordinate is box-bounded -- the polytope
    ``{t̄ : lo_i <= c̄_i·t̄ <= hi_i}`` *is* bounded, and explicit bounds
    follow from inverting any ``m`` independent rows ``M``: each
    ``t_k = Σ_j (M⁻¹)_{kj} y_j`` with ``y_j`` confined to its row interval.

    Returns per-variable integer intervals ``[lo, hi]``, or ``None`` when
    the rows do not span ``Q^m`` (the genuinely unbounded case).
    """
    # Select m linearly independent rows by Gaussian elimination over Q.
    work: list[list[Fraction]] = []
    chosen: list[int] = []
    pivots: list[int] = []
    for idx, (coeffs, _, _) in enumerate(rows):
        vec = [Fraction(c) for c in coeffs]
        for row, piv in zip(work, pivots):
            if vec[piv]:
                factor = vec[piv] / row[piv]
                vec = [a - factor * b for a, b in zip(vec, row)]
        piv = next((k for k, v in enumerate(vec) if v), None)
        if piv is None:
            continue
        work.append(vec)
        pivots.append(piv)
        chosen.append(idx)
        if len(chosen) == m:
            break
    if len(chosen) < m:
        return None

    # Invert M (rows `chosen`) by Gauss-Jordan over Q.
    mat = [
        [Fraction(c) for c in rows[idx][0]] + [
            Fraction(int(j == pos)) for j in range(m)
        ]
        for pos, idx in enumerate(chosen)
    ]
    for col in range(m):
        pivot = next(r for r in range(col, m) if mat[r][col])
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(m):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    inverse = [row[m:] for row in mat]

    out: list[list[int]] = []
    for k in range(m):
        lo_sum = Fraction(0)
        hi_sum = Fraction(0)
        for j, idx in enumerate(chosen):
            _, lo_j, hi_j = rows[idx]
            a, b = inverse[k][j] * lo_j, inverse[k][j] * hi_j
            lo_sum += min(a, b)
            hi_sum += max(a, b)
        out.append(
            [
                ceil_div(lo_sum.numerator, lo_sum.denominator),
                floor_div(hi_sum.numerator, hi_sum.denominator),
            ]
        )
    return out


def _prepare(
    particular: Sequence[int],
    basis: Sequence[Sequence[int]],
    bounds: Sequence[tuple[int, int]],
) -> tuple[list, list] | None:
    """Constraint rows + tightened per-direction intervals for ``t̄``.

    Returns ``(rows, intervals)`` with every interval finite, or ``None``
    when the system is infeasible (a fixed coordinate violates the box or
    propagation finds a contradiction).  Raises
    :class:`UnboundedLatticeError` when the lattice is genuinely unbounded.
    Requires ``len(basis) > 0``.
    """
    n = len(particular)
    m = len(basis)

    # Row form: lo_i - p_i <= sum_k basis[k][i] * t_k <= hi_i - p_i.
    rows = []
    for i in range(n):
        coeffs = [int(basis[k][i]) for k in range(m)]
        if all(c == 0 for c in coeffs):
            lo, hi = bounds[i]
            if not (lo <= particular[i] <= hi):
                return None  # the fixed coordinate violates the box
            continue
        rows.append(
            (coeffs, bounds[i][0] - particular[i], bounds[i][1] - particular[i])
        )

    intervals: list[list] = [[_INF, _INF] for _ in range(m)]
    if not _tighten(intervals, rows):
        return None
    if any(lo is _INF or hi is _INF for lo, hi in intervals):
        # Propagation stalled (it needs all-but-one variable of some row
        # already bounded); fall back to algebraic bounds from an
        # invertible row submatrix, then intersect and re-tighten.
        algebraic = _algebraic_bounds(rows, m)
        if algebraic is None:
            k = next(
                k for k, (lo, hi) in enumerate(intervals)
                if lo is _INF or hi is _INF
            )
            raise UnboundedLatticeError(
                f"lattice direction t_{k} is not bounded by the box constraints"
            )
        for iv, (alo, ahi) in zip(intervals, algebraic):
            if iv[0] is _INF or alo > iv[0]:
                iv[0] = alo
            if iv[1] is _INF or ahi < iv[1]:
                iv[1] = ahi
            if iv[0] > iv[1]:
                return None
        if not _tighten(intervals, rows):
            return None
    return rows, intervals


def lattice_intervals(
    particular: Sequence[int],
    basis: Sequence[Sequence[int]],
    bounds: Sequence[tuple[int, int]],
) -> list[tuple[int, int]] | None:
    """Sound finite intervals confining every feasible ``t̄`` direction.

    Every solution of ``particular + B t̄ ∈ box`` has
    ``intervals[k][0] <= t_k <= intervals[k][1]`` (the converse need not
    hold -- the box of intervals over-approximates the feasible polytope).
    Returns ``None`` when there are provably no solutions; raises
    :class:`UnboundedLatticeError` when a direction cannot be bounded.

    Rank-deficient generator sets are first reduced via
    :func:`reduce_basis`; the returned intervals then correspond to the
    *reduced* basis directions.
    """
    n = len(particular)
    if len(bounds) != n:
        raise ValueError("bounds length must match solution dimension")
    basis = reduce_basis(basis)
    if not basis:
        return []
    prep = _prepare(particular, basis, bounds)
    if prep is None:
        return None
    _rows, intervals = prep
    return [(iv[0], iv[1]) for iv in intervals]


def bounded_lattice_points(
    particular: Sequence[int],
    basis: Sequence[Sequence[int]],
    bounds: Sequence[tuple[int, int]],
) -> Iterator[list[int]]:
    """Enumerate ``x = particular + sum_k t_k basis[k]`` with
    ``bounds[i][0] <= x_i <= bounds[i][1]`` for all ``i``.

    Yields each solution vector ``x`` exactly once -- including for
    rank-deficient generator sets, which are reduced to an independent
    basis of the same lattice first (:func:`reduce_basis`).  Raises
    :class:`UnboundedLatticeError` when constraint propagation cannot bound
    every lattice coordinate of an independent basis (which a finite box
    never produces; the error survives as a defensive invariant).
    """
    n = len(particular)
    if len(bounds) != n:
        raise ValueError("bounds length must match solution dimension")
    basis = reduce_basis(basis)
    m = len(basis)
    if m == 0:
        x = list(particular)
        if all(lo <= xi <= hi for xi, (lo, hi) in zip(x, bounds)):
            yield x
        return

    prep = _prepare(particular, basis, bounds)
    if prep is None:
        return
    rows, intervals = prep

    def recurse(assign: list[int | None], intervals: list[list]) -> Iterator[list[int]]:
        # Pick the unassigned variable with the narrowest range.
        free = [k for k in range(m) if assign[k] is None]
        if not free:
            x = list(particular)
            for k in range(m):
                tk = assign[k]
                for i in range(n):
                    x[i] += tk * basis[k][i]
            if all(lo <= xi <= hi for xi, (lo, hi) in zip(x, bounds)):
                yield x
            return
        k = min(free, key=lambda k_: intervals[k_][1] - intervals[k_][0])
        lo_k, hi_k = intervals[k]
        for val in range(lo_k, hi_k + 1):
            new_assign = list(assign)
            new_assign[k] = val
            # Substitute t_k = val into the rows and re-tighten the rest.
            new_rows = []
            feasible = True
            for coeffs, lo, hi in rows:
                ck = coeffs[k]
                new_coeffs = list(coeffs)
                new_coeffs[k] = 0
                new_lo = lo - ck * val
                new_hi = hi - ck * val
                # Also substitute already-assigned variables for tightness.
                for k2 in range(m):
                    if k2 != k and new_assign[k2] is not None and new_coeffs[k2]:
                        new_lo -= new_coeffs[k2] * new_assign[k2]
                        new_hi -= new_coeffs[k2] * new_assign[k2]
                        new_coeffs[k2] = 0
                if all(c == 0 for c in new_coeffs):
                    if not (new_lo <= 0 <= new_hi):
                        feasible = False
                        break
                    continue
                new_rows.append((new_coeffs, new_lo, new_hi))
            if not feasible:
                continue
            new_intervals = [list(iv) for iv in intervals]
            new_intervals[k] = [val, val]
            if not _tighten(new_intervals, new_rows):
                continue
            yield from recurse(new_assign, new_intervals)

    yield from recurse([None] * m, intervals)
