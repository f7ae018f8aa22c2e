"""Property-based tests for :mod:`repro.util.intmath`,
:mod:`repro.util.linalg` and :mod:`repro.depanalysis.diophantine`.

These modules underpin every exactness claim in the repository (the GCD
dependence test, lattice enumeration, rank/coprimality feasibility
conditions), so they are tested against their algebraic contracts on
random inputs drawn from the shared ``tests/strategies.py``
strategies: divisibility laws, full round-trips of
the Hermite/Smith transform matrices and integer system solutions, and
brute-force cross-checks of bounded lattice enumeration (including
zero-coefficient rows, negative strides, and GCD-unsatisfiable systems).
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.depanalysis.diophantine import (
    UnboundedLatticeError,
    bounded_lattice_points,
    lattice_intervals,
    reduce_basis,
)
from repro.util.intmath import ceil_div, floor_div, gcd_list
from repro.util.linalg import (
    hermite_normal_form,
    integer_nullspace,
    integer_rank,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_integer_system,
)
from tests.conftest import unimodular
from tests.strategies import int_matrix_strategy, int_vector_strategy

ints = st.integers(-50, 50)


# ---------------------------------------------------------------------------
# intmath
# ---------------------------------------------------------------------------

@given(int_vector_strategy())
def test_gcd_list_divides_every_entry(vec):
    g = gcd_list(vec)
    assert g >= 0
    if any(vec):
        assert g > 0
        assert all(v % g == 0 for v in vec)
    else:
        assert g == 0


@given(ints, st.integers(-8, 8).filter(bool))
def test_floor_ceil_div_bracket_the_quotient(a, b):
    lo, hi = floor_div(a, b), ceil_div(a, b)
    assert lo * b <= a if b > 0 else lo * b >= a
    assert lo <= a / b <= hi
    assert hi - lo in (0, 1)


# ---------------------------------------------------------------------------
# linalg
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(int_matrix_strategy())
def test_hermite_round_trip(a):
    h, u = hermite_normal_form(a)
    assert unimodular(u)
    assert mat_mul(u, a) == h
    # Echelon shape: pivot columns strictly increase; pivots positive.
    last = -1
    for row in h:
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        assert piv > last
        assert row[piv] > 0
        last = piv


@settings(deadline=None)
@given(int_matrix_strategy())
def test_smith_round_trip_and_divisibility(a):
    d, u, v = smith_normal_form(a)
    assert unimodular(u) and unimodular(v)
    assert mat_mul(mat_mul(u, a), v) == d
    m, n = len(d), len(d[0])
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(
        d[i][j] == 0 for i in range(m) for j in range(n) if i != j
    )
    assert all(x >= 0 for x in diag)
    for first, second in zip(diag, diag[1:]):
        if first:
            assert second % first == 0
        else:
            assert second == 0


@settings(deadline=None)
@given(int_matrix_strategy())
def test_nullspace_vectors_annihilate(a):
    basis = integer_nullspace(a)
    n = len(a[0])
    assert len(basis) == n - integer_rank(a)
    for vec in basis:
        assert mat_vec(a, vec) == [0] * len(a)
        assert any(vec)


@settings(deadline=None)
@given(int_matrix_strategy(max_dim=3, bound=4), st.data())
def test_solve_integer_system_round_trip(a, data):
    b = data.draw(
        st.lists(
            st.integers(-20, 20), min_size=len(a), max_size=len(a)
        )
    )
    solved = solve_integer_system(a, b)
    if solved is None:
        return
    particular, basis = solved
    assert mat_vec(a, particular) == b
    for vec in basis:
        assert mat_vec(a, vec) == [0] * len(a)


@settings(deadline=None)
@given(int_matrix_strategy(max_dim=3, bound=4))
def test_solvable_when_rhs_in_image(a):
    # Construct b = A x for a known x: a solution must then be found.
    x = list(range(1, len(a[0]) + 1))
    b = mat_vec(a, x)
    solved = solve_integer_system(a, b)
    assert solved is not None
    particular, _ = solved
    assert mat_vec(a, particular) == b


# ---------------------------------------------------------------------------
# depanalysis.diophantine: bounded lattice enumeration edge cases
# ---------------------------------------------------------------------------

def _brute_force_lattice(particular, basis, bounds, intervals):
    """All in-box points reachable with t̄ confined to ``intervals``."""
    points = set()
    for t in itertools.product(
        *[range(lo, hi + 1) for lo, hi in intervals]
    ):
        x = [
            p + sum(b[i] * tk for b, tk in zip(basis, t))
            for i, p in enumerate(particular)
        ]
        if all(lo <= xi <= hi for xi, (lo, hi) in zip(x, bounds)):
            points.add(tuple(x))
    return points


@given(int_vector_strategy(), st.integers(-30, 30))
def test_gcd_unsatisfiable_equation_has_no_solution(coeffs, rhs):
    # The GCD screen is exact: if g = gcd(coeffs) does not divide rhs the
    # equation is unsatisfiable, and the solver must report that (rather
    # than, say, a rounded-off "solution").
    g = gcd_list(coeffs)
    if g > 1:
        rhs = rhs * g + 1  # force g ∤ rhs
        assert solve_integer_system([coeffs], [rhs]) is None
    elif g == 1:
        assert solve_integer_system([coeffs], [rhs]) is not None


@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=4),
    st.data(),
)
def test_zero_coefficient_rows_gate_on_fixed_coordinate(particular, data):
    # A coordinate every basis vector is zero on is *fixed* at its
    # particular value; feasibility of the whole lattice hinges on whether
    # that fixed value sits inside the box.
    n = len(particular)
    basis = [[0] * n]
    basis[0][-1] = data.draw(st.integers(1, 3))  # only the last axis moves
    bounds = [
        (data.draw(st.integers(-4, 0)), data.draw(st.integers(0, 4)))
        for _ in range(n)
    ]
    fixed_ok = all(
        lo <= particular[i] <= hi
        for i, (lo, hi) in enumerate(bounds[:-1])
    )
    points = list(bounded_lattice_points(particular, basis, bounds))
    intervals = lattice_intervals(particular, basis, bounds)
    if not fixed_ok:
        assert points == []
        assert intervals is None
    for x in points:
        assert x[:-1] == particular[:-1]  # zero-coefficient rows are frozen


def test_lattice_intervals_empty_basis():
    assert lattice_intervals([1, 2], [], [(0, 3), (0, 3)]) == []


def test_negative_stride_single_direction():
    # Stride -2 on one axis: x = 5 - 2t inside [0, 5] gives {5, 3, 1}.
    points = sorted(
        tuple(x) for x in bounded_lattice_points([5], [[-2]], [(0, 5)])
    )
    assert points == [(1,), (3,), (5,)]
    (interval,) = lattice_intervals([5], [[-2]], [(0, 5)])
    assert interval[0] <= 0 <= interval[1]
    assert interval[0] <= 2 <= interval[1]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.data())
def test_lattice_enumeration_matches_brute_force(n, data):
    # Soundness + completeness on random lattices, explicitly including
    # negative strides (basis entries drawn from [-2, 2]): the enumerated
    # set equals a brute-force scan of the interval box, and every
    # enumerated point's t̄ lies inside lattice_intervals' bounds.
    particular = data.draw(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    )
    k = data.draw(st.integers(1, n))
    basis = data.draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any),
            min_size=k,
            max_size=k,
        )
    )
    bounds = []
    for _ in range(n):
        lo = data.draw(st.integers(-3, 1))
        bounds.append((lo, lo + data.draw(st.integers(0, 4))))
    try:
        points = [
            tuple(x) for x in bounded_lattice_points(particular, basis, bounds)
        ]
        intervals = lattice_intervals(particular, basis, bounds)
    except UnboundedLatticeError:
        return  # rank-deficient basis: legitimately unbounded, out of scope
    if intervals is None:
        assert points == []
        return
    volume = 1
    for lo, hi in intervals:
        volume *= max(0, hi - lo + 1)
    if volume > 20_000:  # near-degenerate basis: skip the exhaustive scan
        return
    # lattice_intervals' bounds correspond to the reduced basis
    # directions (rank-deficient generator sets are HNF-reduced first).
    expected = _brute_force_lattice(
        particular, reduce_basis(basis), bounds, intervals
    )
    assert set(points) == expected
    assert len(points) == len(set(points))  # each solution yielded once
