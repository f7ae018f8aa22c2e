"""Exact linear algebra over the integers.

The dependence analyzer reduces "does iteration ``j̄`` depend on iteration
``j̄'``" to integer solvability of linear systems built from affine array
subscripts; the mapping layer needs ranks, nullspaces and ``S·D = P·K``
factorizations.  Both are served by the routines here, which
work on nested lists of Python ints so that no precision is ever lost.

The central algorithms are the Hermite and Smith normal forms computed by
integer row/column reduction with explicit unimodular transform tracking:

* ``hermite_normal_form(A) -> (H, U)`` with ``U @ A == H``, ``U`` unimodular
  and ``H`` in row-style HNF.
* ``smith_normal_form(A) -> (D, U, V)`` with ``U @ A @ V == D`` diagonal,
  ``d_i | d_{i+1}``, and ``U``, ``V`` unimodular.

``solve_integer_system(A, b)`` then yields the full integer solution lattice
of ``A x = b`` (particular solution + basis of the integer nullspace), which
is exactly what Banerjee-style exact dependence testing consumes.
``lagrange_reduce`` turns a lattice basis into one of short vectors, which
the mapping layer's conflict test reads off the nullspace of ``T``.
"""

from __future__ import annotations

import itertools
from typing import Sequence

__all__ = [
    "identity_matrix",
    "mat_mul",
    "mat_vec",
    "integer_rank",
    "hermite_normal_form",
    "smith_normal_form",
    "integer_nullspace",
    "lagrange_reduce",
    "solve_integer_system",
]

Matrix = list[list[int]]
Vector = list[int]


def identity_matrix(n: int) -> Matrix:
    """Return the ``n x n`` identity matrix as nested lists of ints."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _copy(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(map(int, row)) for row in a]


def _dims(a: Sequence[Sequence[int]]) -> tuple[int, int]:
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    return m, n


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Exact integer matrix product ``a @ b``."""
    ma, na = _dims(a)
    mb, nb = _dims(b)
    if na != mb:
        raise ValueError(f"dimension mismatch: {ma}x{na} @ {mb}x{nb}")
    out = [[0] * nb for _ in range(ma)]
    for i in range(ma):
        ai = a[i]
        for k in range(na):
            aik = ai[k]
            if aik == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(nb):
                row[j] += aik * bk[j]
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    """Exact integer matrix-vector product ``a @ v``."""
    ma, na = _dims(a)
    if na != len(v):
        raise ValueError(f"dimension mismatch: {ma}x{na} @ vector[{len(v)}]")
    return [sum(a[i][j] * v[j] for j in range(na)) for i in range(ma)]


def integer_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix over the rationals, by fraction-free
    (Bareiss) row reduction on Python ints.

    After each pivot step every entry below the pivot row is a minor of
    ``a``, so dividing by the previous pivot is exact and entries stay
    bounded by Hadamard's inequality -- the same rank as rational
    Gaussian elimination, without building a ``Fraction`` per entry.
    """
    m, n = _dims(a)
    if m == 0 or n == 0:
        return 0
    work = _copy(a)
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(rank, m) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        pv = top[col]
        for r in range(rank + 1, m):
            row = work[r]
            f = row[col]
            for j in range(col + 1, n):
                row[j] = (pv * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank


def hermite_normal_form(a: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U`` unimodular (``m x m``), ``U @ a == H``,
    ``H`` upper-echelon with positive pivots and entries above each pivot
    reduced modulo the pivot.
    """
    m, n = _dims(a)
    h = _copy(a)
    u = identity_matrix(m)
    row = 0
    for col in range(n):
        if row >= m:
            break
        # Euclidean elimination below (row, col).
        while True:
            nz = [r for r in range(row, m) if h[r][col] != 0]
            if not nz:
                break
            # Bring the smallest-magnitude nonzero to the pivot position.
            piv = min(nz, key=lambda r: abs(h[r][col]))
            if piv != row:
                h[row], h[piv] = h[piv], h[row]
                u[row], u[piv] = u[piv], u[row]
            done = True
            for r in range(row + 1, m):
                if h[r][col] != 0:
                    q = h[r][col] // h[row][col]
                    if q:
                        h[r] = [h[r][j] - q * h[row][j] for j in range(n)]
                        u[r] = [u[r][j] - q * u[row][j] for j in range(m)]
                    if h[r][col] != 0:
                        done = False
            if done:
                break
        if h[row][col] == 0:
            continue
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        # Reduce entries above the pivot.
        for r in range(row):
            q = h[r][col] // h[row][col]
            if q:
                h[r] = [h[r][j] - q * h[row][j] for j in range(n)]
                u[r] = [u[r][j] - q * u[row][j] for j in range(m)]
        row += 1
    return h, u


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transform tracking.

    Returns ``(D, U, V)`` such that ``U @ a @ V == D`` where ``U`` (``m x m``)
    and ``V`` (``n x n``) are unimodular and ``D`` is diagonal with
    ``D[i][i] >= 0`` and ``D[i][i]`` dividing ``D[i+1][i+1]``.
    """
    m, n = _dims(a)
    d = _copy(a)
    u = identity_matrix(m)
    v = identity_matrix(n)

    def row_op(i: int, j: int, q: int) -> None:
        """row_i -= q * row_j (applied to d and u)."""
        d[i] = [d[i][c] - q * d[j][c] for c in range(n)]
        u[i] = [u[i][c] - q * u[j][c] for c in range(m)]

    def col_op(i: int, j: int, q: int) -> None:
        """col_i -= q * col_j (applied to d and v)."""
        for r in range(m):
            d[r][i] -= q * d[r][j]
        for r in range(n):
            v[r][i] -= q * v[r][j]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(m, n):
        # Find a nonzero pivot in the trailing submatrix.
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        # Clear row and column t.
        while True:
            again = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t] != 0:
                        row_swap(t, i)
                        again = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j] != 0:
                        col_swap(t, j)
                        again = True
            if not again:
                break
        # Enforce divisibility d[t][t] | d[i][j] for the trailing block.
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    # Add row i to row t and restart elimination at t.
                    d[t] = [d[t][c] + d[i][c] for c in range(n)]
                    u[t] = [u[t][c] + u[i][c] for c in range(m)]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return d, u, v


def integer_nullspace(a: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of the integer nullspace ``{x in Z^n : a @ x == 0}``.

    The basis generates the full lattice of integer solutions (not just a
    rational basis scaled to integrality), courtesy of the Smith normal form.
    """
    m, n = _dims(a)
    if n == 0:
        return []
    d, _u, v = smith_normal_form(a)
    r = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    # Columns r..n-1 of V span the nullspace lattice.
    return [[v[row][col] for row in range(n)] for col in range(r, n)]


def lagrange_reduce(basis: Sequence[Sequence[int]]) -> list[Vector]:
    """A size-reduced basis of the lattice spanned by the independent
    ``basis``, shortest vector first.

    Pairwise Lagrange reduction: while subtracting the nearest integer
    multiple ``q·b_j`` of another basis vector shortens some ``b_i``
    (``2|b_i·b_j| > b_j·b_j``), do it.  Each step is unimodular and lowers
    ``Σ b_i·b_i``, a positive integer, so the loop ends, with every pair
    size-reduced: ``2|b_i·b_j| <= b_j·b_j``.
    """
    vecs = [list(map(int, v)) for v in basis]
    norms = [sum(x * x for x in v) for v in vecs]
    shortened = True
    while shortened:
        shortened = False
        for i, j in itertools.permutations(range(len(vecs)), 2):
            dot = sum(x * y for x, y in zip(vecs[i], vecs[j]))
            if 2 * abs(dot) > norms[j]:
                q = (2 * dot + norms[j]) // (2 * norms[j])  # round(dot / |b_j|²)
                vecs[i] = [x - q * y for x, y in zip(vecs[i], vecs[j])]
                norms[i] = sum(x * x for x in vecs[i])
                shortened = True
    order = sorted(range(len(vecs)), key=norms.__getitem__)
    return [vecs[i] for i in order]


def solve_integer_system(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[Vector, list[Vector]] | None:
    """Solve ``a @ x == b`` over the integers.

    Returns ``None`` when no integer solution exists, otherwise
    ``(particular, basis)`` where the general solution is
    ``particular + sum_k t_k basis[k]`` over integer ``t_k``.
    """
    m, n = _dims(a)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    if n == 0:
        return ([], []) if all(x == 0 for x in b) else None
    d, u, v = smith_normal_form(a)
    c = mat_vec(u, list(b))
    y = [0] * n
    for i in range(min(m, n)):
        di = d[i][i]
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    for i in range(min(m, n), m):
        if c[i] != 0:
            return None
    particular = mat_vec(v, y)
    r = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    basis = [[v[row][col] for row in range(n)] for col in range(r, n)]
    return particular, basis
