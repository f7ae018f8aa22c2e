"""Metamorphic/property cross-checks inside the mapping layer.

Two independent implementations of the same question must agree:

* conflict detection: the lattice method (integer nullspace of ``T``
  bounded by the difference box) vs brute-force hashing of ``T j̄``;
* the reduced nullspace basis vs the Smith-form one: the same lattice;
* execution time: the corner formula vs explicit maximization;
* schedule optimality: `find_optimal_schedule` vs brute force over the
  same coefficient box.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapping.conflicts import (
    enumerate_conflict_pairs,
    find_conflicts,
    is_conflict_free,
)
from repro.mapping.schedule import (
    execution_time,
    find_optimal_schedule,
    schedule_is_valid,
)
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.conditions import TRUE
from repro.structures.dependence import DependenceVector
from repro.structures.indexset import IndexSet
from repro.util.linalg import hermite_normal_form, integer_nullspace, mat_vec


def random_mapping(draw, k, n, bound=2):
    rows = [
        [draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(k)
    ]
    return MappingMatrix(rows)


class TestConflictCrossCheck:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lattice_vs_hashing(self, data):
        n = data.draw(st.integers(2, 3))
        k = data.draw(st.integers(2, n))
        t = random_mapping(data.draw, k, n)
        size = data.draw(st.integers(2, 3))
        index_set = IndexSet.cube(n, size)
        lattice_says_free = is_conflict_free(t, index_set, {})
        hashing_pairs = enumerate_conflict_pairs(t, index_set, {}, limit=1)
        assert lattice_says_free == (not hashing_pairs)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_conflict_directions_are_real(self, data):
        n = 3
        t = random_mapping(data.draw, 2, n)
        index_set = IndexSet.cube(n, 3)
        for d in find_conflicts(t, index_set, {}):
            assert any(d)
            assert mat_vec(t.rows, d) == [0] * t.k


class TestReducedNullspace:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_reduced_basis_spans_the_smith_lattice(self, data):
        n = data.draw(st.integers(2, 5))
        k = data.draw(st.integers(1, n))
        t = random_mapping(data.draw, k, n, bound=3)
        basis = [list(v) for v in t.nullspace()]
        smith = integer_nullspace(t.rows)
        assert len(basis) == len(smith)
        if basis:
            # Equal Hermite forms: the two bases span one lattice.
            assert hermite_normal_form(basis)[0] == (
                hermite_normal_form(smith)[0]
            )
        for v in basis:
            assert mat_vec(t.rows, v) == [0] * t.k

        def dot(a, b):
            return sum(x * y for x, y in zip(a, b))

        norms = [dot(v, v) for v in basis]
        assert norms == sorted(norms)
        for i, j in itertools.permutations(range(len(basis)), 2):
            assert 2 * abs(dot(basis[i], basis[j])) <= norms[j]


class TestExecutionTimeCrossCheck:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_formula_vs_enumeration(self, data):
        n = data.draw(st.integers(1, 3))
        pi = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        size = data.draw(st.integers(1, 4))
        alg = Algorithm(
            IndexSet.cube(n, size), [DependenceVector([1] * n, (), TRUE)]
        )
        times = [
            sum(c * x for c, x in zip(pi, pt))
            for pt in alg.index_set.points({})
        ]
        assert execution_time(pi, alg, {}) == max(times) - min(times) + 1


class TestOptimalityCrossCheck:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_search_is_truly_minimal(self, data):
        # Random small uniform dependence sets; brute force over the same
        # coefficient box must not beat find_optimal_schedule.
        n = 2
        m = data.draw(st.integers(1, 3))
        vectors = []
        for _ in range(m):
            vec = [data.draw(st.integers(-1, 2)) for _ in range(n)]
            if not any(vec):
                vec[0] = 1
            vectors.append(DependenceVector(vec))
        alg = Algorithm(IndexSet.cube(n, 4), vectors)
        bound = 2
        best = find_optimal_schedule(alg, {}, coeff_bound=bound)
        brute = None
        for pi in itertools.product(range(-bound, bound + 1), repeat=n):
            if not schedule_is_valid(pi, alg):
                continue
            t = execution_time(pi, alg, {})
            if brute is None or t < brute:
                brute = t
        if brute is None:
            assert best is None
        else:
            assert best is not None
            assert best[1] == brute
            assert schedule_is_valid(best[0], alg)
