"""Tests for repro.util.linalg (exact integer linear algebra)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.linalg import (
    hermite_normal_form,
    identity_matrix,
    integer_nullspace,
    integer_rank,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_integer_system,
)
from tests.conftest import unimodular


def matrices(max_dim=4, max_entry=6):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.integers(-max_entry, max_entry), min_size=n, max_size=n
                ),
                min_size=m,
                max_size=m,
            )
        )
    )


class TestBasicOps:
    def test_identity(self):
        assert identity_matrix(2) == [[1, 0], [0, 1]]

    def test_identity_zero(self):
        assert identity_matrix(0) == []

    def test_mat_mul(self):
        a = [[1, 2], [3, 4]]
        b = [[5, 6], [7, 8]]
        assert mat_mul(a, b) == [[19, 22], [43, 50]]

    def test_mat_mul_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul([[1, 2]], [[1, 2]])

    def test_mat_vec(self):
        assert mat_vec([[1, 2], [3, 4]], [5, 6]) == [17, 39]

    def test_mat_vec_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec([[1, 2]], [1, 2, 3])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            integer_rank([[1, 2], [3]])


class TestRankDeterminant:
    def test_rank_full(self):
        assert integer_rank([[1, 0], [0, 1]]) == 2

    def test_rank_deficient(self):
        assert integer_rank([[1, 2], [2, 4]]) == 1

    def test_rank_zero_matrix(self):
        assert integer_rank([[0, 0], [0, 0]]) == 0

    def test_rank_wide(self):
        assert integer_rank([[1, 0, 1], [0, 1, 1]]) == 2

    def test_rank_tall(self):
        assert integer_rank([[1, 2], [3, 6], [1, 0]]) == 2

    @given(matrices())
    @settings(max_examples=60)
    def test_rank_of_transpose(self, a):
        assert integer_rank(a) == integer_rank([list(c) for c in zip(*a)])


def _fraction_rank(a):
    """Rank by Gaussian elimination over ``Fraction`` -- the reference
    the fraction-free :func:`integer_rank` must agree with."""
    m = len(a)
    n = len(a[0]) if m else 0
    work = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, m) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rank + 1, m):
            f = work[r][col] / work[rank][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


class TestRankAgainstFractionReference:
    @staticmethod
    def _random(rng, m, n, entries):
        return [[rng.choice(entries) for _ in range(n)] for _ in range(m)]

    def test_small_entries(self):
        rng = random.Random(11)
        entries = list(range(-3, 4))
        for _ in range(2000):
            a = self._random(rng, rng.randint(1, 6), rng.randint(1, 6), entries)
            assert integer_rank(a) == _fraction_rank(a), a

    def test_entries_near_2_pow_70(self):
        rng = random.Random(12)
        big = 1 << 70
        entries = [0, 1, -1, big, -big, big - 1, -big + 3, big + 5]
        for _ in range(600):
            a = self._random(rng, rng.randint(1, 6), rng.randint(1, 6), entries)
            assert integer_rank(a) == _fraction_rank(a), a

    def test_low_rank_products(self):
        rng = random.Random(13)
        for _ in range(600):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            k = rng.randint(0, min(m, n))
            b = self._random(rng, m, k, range(-4, 5))
            c = self._random(rng, k, n, range(-4, 5))
            a = [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(n)]
                 for i in range(m)]
            assert integer_rank(a) == _fraction_rank(a) <= k, a

    @pytest.mark.parametrize("a", [[], [[]], [[], []], [[0]], [[0] * 6] * 6])
    def test_empty_and_all_zero(self, a):
        assert integer_rank(a) == _fraction_rank(a) == 0


class TestHermite:
    def test_simple(self):
        h, u = hermite_normal_form([[2, 4], [1, 1]])
        assert mat_mul(u, [[2, 4], [1, 1]]) == h
        assert unimodular(u)
        # Echelon, positive pivots.
        assert h[0][0] > 0

    @given(matrices())
    @settings(max_examples=80)
    def test_uah_identity(self, a):
        h, u = hermite_normal_form(a)
        assert mat_mul(u, a) == h
        assert unimodular(u)

    @given(matrices())
    @settings(max_examples=80)
    def test_echelon_shape(self, a):
        h, _ = hermite_normal_form(a)
        # Pivot columns strictly increase row by row; zero rows trail.
        last_pivot = -1
        seen_zero_row = False
        for row in h:
            nz = next((j for j, x in enumerate(row) if x != 0), None)
            if nz is None:
                seen_zero_row = True
                continue
            assert not seen_zero_row
            assert nz > last_pivot
            assert row[nz] > 0
            last_pivot = nz


class TestSmith:
    def test_simple(self):
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert unimodular(u)
        assert unimodular(v)

    @given(matrices())
    @settings(max_examples=80)
    def test_uav_identity(self, a):
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert unimodular(u)
        assert unimodular(v)

    @given(matrices())
    @settings(max_examples=80)
    def test_diagonal_divisibility(self, a):
        d, _, _ = smith_normal_form(a)
        m, n = len(d), len(d[0])
        diag = [d[i][i] for i in range(min(m, n))]
        # Off-diagonal zero.
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        # Nonnegative, divisibility chain, zeros trail.
        for i, x in enumerate(diag):
            assert x >= 0
            if i + 1 < len(diag) and x != 0:
                assert diag[i + 1] % x == 0
            if x == 0 and i + 1 < len(diag):
                assert diag[i + 1] == 0


class TestNullspace:
    def test_trivial(self):
        assert integer_nullspace([[1, 0], [0, 1]]) == []

    def test_rank_one(self):
        basis = integer_nullspace([[1, 2]])
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + 2 * v[1] == 0
        assert v != [0, 0]

    def test_broadcast_direction_matmul(self):
        # x(j1, j3) inside a (j1, j2, j3) nest: nullspace is the j2 axis.
        basis = integer_nullspace([[1, 0, 0], [0, 0, 1]])
        assert len(basis) == 1
        assert [abs(x) for x in basis[0]] == [0, 1, 0]

    @given(matrices())
    @settings(max_examples=80)
    def test_nullspace_vectors_annihilate(self, a):
        for vec in integer_nullspace(a):
            assert mat_vec(a, vec) == [0] * len(a)
            assert any(vec)

    @given(matrices())
    @settings(max_examples=60)
    def test_nullspace_dimension(self, a):
        n = len(a[0])
        assert len(integer_nullspace(a)) == n - integer_rank(a)


class TestSolveIntegerSystem:
    def test_unique_solution(self):
        sol = solve_integer_system([[1, 0], [0, 1]], [3, 4])
        assert sol is not None
        assert sol[0] == [3, 4]
        assert sol[1] == []

    def test_no_rational_solution(self):
        assert solve_integer_system([[1, 0], [1, 0]], [1, 2]) is None

    def test_no_integer_solution(self):
        assert solve_integer_system([[2]], [3]) is None

    def test_underdetermined(self):
        sol = solve_integer_system([[1, 1]], [5])
        assert sol is not None
        particular, basis = sol
        assert sum(particular) == 5
        assert len(basis) == 1

    def test_zero_columns(self):
        sol = solve_integer_system([[0, 0]], [0])
        assert sol is not None
        assert len(sol[1]) == 2

    def test_empty_width(self):
        assert solve_integer_system([[], []], [0, 0]) == ([], [])
        assert solve_integer_system([[], []], [1, 0]) is None

    @given(
        matrices(),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    @settings(max_examples=80)
    def test_returned_solutions_valid(self, a, x_seed):
        # Construct a guaranteed-solvable system: b = A @ x for integer x.
        n = len(a[0])
        x = (x_seed * n)[:n]
        b = mat_vec(a, x)
        sol = solve_integer_system(a, b)
        assert sol is not None
        particular, basis = sol
        assert mat_vec(a, particular) == b
        for vec in basis:
            assert mat_vec(a, vec) == [0] * len(a)
