"""Tests for the S·D = P·K factorization and primitive matrices."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from repro.expansion.theorem31 import matmul_bit_level
from repro.mapping.designs import (
    fig4_k_paper,
    fig4_mapping,
    fig4_primitives,
    fig5_mapping,
    fig5_primitives,
)
from repro.mapping.interconnect import (
    _column_combinations,
    mesh_primitives,
    solve_interconnect,
    with_long_wires,
)
from repro.mapping.memo import EvalCache
from repro.util.linalg import mat_mul


def matmul_D(u=3, p=3):
    alg = matmul_bit_level(u, p, "II")
    cols = alg.dependences.columns()
    return [[c[r] for c in cols] for r in range(5)], alg


class TestPrimitiveMatrices:
    def test_mesh_2d(self):
        p = mesh_primitives(2)
        cols = {tuple(p[r][j] for r in range(2)) for j in range(4)}
        assert cols == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_mesh_1d(self):
        p = mesh_primitives(1)
        assert p == [[1, -1]]

    def test_with_long_wires(self):
        p = with_long_wires([[5, 0]])
        assert len(p[0]) == 5
        assert (p[0][4], p[1][4]) == (5, 0)

    def test_long_wire_dim_mismatch(self):
        with pytest.raises(ValueError):
            with_long_wires([[5]])


class TestSolveInterconnect:
    def test_fig4_solution(self):
        d, _ = matmul_D(3, 3)
        t = fig4_mapping(3)
        sol = solve_interconnect(t.space, d, t.schedule, fig4_primitives(3))
        assert sol is not None
        assert sol.verify(t.space, d)
        # d̄₄ column: one hop, deadline 2 -> one buffer.
        i_d4 = next(
            i for i in range(7)
            if [d[r][i] for r in range(5)] == [0, 0, 0, 1, 0]
        )
        assert sol.hops[i_d4] == 1
        assert sol.deadlines[i_d4] == 2
        assert sol.buffers[i_d4] == 1

    def test_fig5_solution_unit_wires(self):
        d, _ = matmul_D(3, 3)
        t = fig5_mapping(3)
        sol = solve_interconnect(t.space, d, t.schedule, fig5_primitives())
        assert sol is not None
        assert sol.verify(t.space, d)
        # Word pipelining now takes p mesh hops.
        i_d1 = next(
            i for i in range(7)
            if [d[r][i] for r in range(5)] == [1, 0, 0, 0, 0]
        )
        assert sol.hops[i_d1] == 3

    def test_fig4_infeasible_on_pure_mesh(self):
        # Without the long wires, d̄₁ needs p hops in 1 time unit.
        d, _ = matmul_D(3, 3)
        t = fig4_mapping(3)
        sol = solve_interconnect(t.space, d, t.schedule, mesh_primitives(2))
        assert sol is None

    def test_paper_k_matrix_verifies(self):
        # The literal K of (4.3) against the paper-ordered D.
        from repro.experiments.e4_fig4 import paper_order_D

        _, alg = matmul_D(3, 3)
        d = paper_order_D(alg)
        t = fig4_mapping(3)
        k = fig4_k_paper()
        assert mat_mul(t.space, d) == mat_mul(fig4_primitives(3), k)
        for i in range(7):
            hops = sum(k[j][i] for j in range(6))
            deadline = sum(t.schedule[r] * d[r][i] for r in range(5))
            assert hops <= deadline

    def test_zero_displacement_zero_hops(self):
        # Stationary data (S·d = 0) needs no hops.
        sol = solve_interconnect(
            [[1, 0]], [[0], [0]], [0, 1], mesh_primitives(1)
        )
        assert sol is not None
        assert sol.hops == [0]

    def test_deadline_violation_returns_none(self):
        # Displacement (2, 0) with deadline 1 on a unit mesh: impossible.
        sol = solve_interconnect(
            [[1, 0], [0, 1]],
            [[2], [0]],
            [0, 1],  # Π d = 0·2 + 1·0 ... deadline computed from schedule
            mesh_primitives(2),
        )
        # Π·d = 0, so even zero hops cannot be "before" -- target (2,0)
        # unreachable within 0 hops.
        assert sol is None

    def test_minimal_hops_preferred(self):
        # Target (1, 0) with generous deadline: the solver picks 1 hop,
        # not a 3-hop detour.
        sol = solve_interconnect(
            [[1, 0], [0, 1]], [[1], [0]], [5, 5], mesh_primitives(2)
        )
        assert sol is not None
        assert sol.hops == [1]


#: Hop counts searched by the brute-force reference; budgets stay below it.
_MAX_HOPS = 7


def _min_hops(cols, target):
    """Fewest primitive uses reaching ``target`` (None beyond _MAX_HOPS)."""
    for hops in range(_MAX_HOPS + 1):
        for combo in combinations_with_replacement(range(len(cols)), hops):
            reached = [sum(cols[j][r] for j in combo) for r in range(len(target))]
            if reached == list(target):
                return hops
    return None


@st.composite
def _primitive_problems(draw):
    """A 2-row ``P`` like eq. (4.3): a zero column, a mixed-sign column and
    a few random ones, plus a target displacement."""
    entry = st.integers(-2, 2)
    cols = draw(st.lists(st.tuples(entry, entry), min_size=1, max_size=3))
    a = draw(st.integers(1, 2))
    cols += [(0, 0), (a, -a)]
    cols = draw(st.permutations(cols))
    target = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    return [[c[r] for c in cols] for r in range(2)], cols, target


class TestColumnCombinationsBudget:
    """The contract the solver's once-per-space condition-2 check needs:
    the depth-first solve fails exactly when the minimum hop count exceeds
    the budget, and otherwise returns one answer for every budget at least
    that minimum."""

    @given(_primitive_problems())
    @settings(max_examples=150, deadline=None)
    def test_budget_only_decides_feasibility(self, problem):
        p_matrix, cols, target = problem
        h = _min_hops(cols, target)
        at_min = None if h is None else _column_combinations(p_matrix, target, h)
        for budget in range(-1, _MAX_HOPS):
            got = _column_combinations(p_matrix, target, budget)
            if h is None or h > budget:
                assert got is None
                continue
            assert got == at_min
            assert all(k >= 0 for k in got) and sum(got) == h
            assert [sum(k * c[r] for k, c in zip(got, cols))
                    for r in range(2)] == list(target)

    @staticmethod
    def _solve(p_matrix, target, deadline, cache):
        """One column: ``S d̄ = target`` and ``Π d̄ = deadline``."""
        return solve_interconnect(
            [[1, 0, 0], [0, 1, 0]], [[target[0]], [target[1]], [1]],
            [0, 0, deadline], p_matrix, cache=cache,
        )

    @given(
        _primitive_problems(),
        st.lists(st.integers(-1, _MAX_HOPS), max_size=4),
        st.lists(
            st.tuples(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                      st.integers(-1, _MAX_HOPS)),
            max_size=4,
        ),
        st.integers(-1, _MAX_HOPS),
    )
    @settings(max_examples=150, deadline=None)
    def test_column_memo_equals_uncached(self, problem, budgets, others,
                                         deadline):
        # The column memo keeps one answer per (P, S d̄_i) with the budget
        # it ran under; whatever budgets primed it, found or not, larger
        # or smaller, every deadline gets the uncached answer.
        p_matrix, _, target = problem
        cache = EvalCache()
        primes = [(target, b) for b in budgets] + others
        for tgt, budget in primes:
            self._solve(p_matrix, tgt, budget, cache)
        assert self._solve(p_matrix, target, deadline, cache) == (
            self._solve(p_matrix, target, deadline, None)
        )
        for tgt, budget in primes:
            assert self._solve(p_matrix, tgt, budget, cache) == (
                self._solve(p_matrix, tgt, budget, None)
            )

    def test_column_memo_serves_the_budgets_it_covers(self):
        # Target (2, 0) on a mesh needs exactly 2 hops.
        mesh, target = mesh_primitives(2), (2, 0)
        cache = EvalCache()

        def solve(deadline):
            got = self._solve(mesh, target, deadline, cache)
            assert got == self._solve(mesh, target, deadline, None)
            return None if got is None else got.hops

        assert solve(1) is None and (cache.hits, cache.misses) == (0, 1)
        # A None serves every budget up to its own ...
        assert solve(0) is None and solve(-1) is None
        assert (cache.hits, cache.misses) == (2, 1)
        # ... and a larger one misses and replaces it.
        assert solve(5) == [2] and (cache.hits, cache.misses) == (2, 2)
        # A found k̄ serves every budget: itself from its hop count up,
        # None below it.
        assert [solve(d) for d in (7, 2, 1, 0)] == [[2], [2], None, None]
        assert (cache.hits, cache.misses) == (6, 2)



class TestPrimitiveRowCount:
    """Condition 2 with a P whose row count is not the space dimension:
    ``solve_interconnect`` and ``check_feasibility`` raise a ValueError
    naming both counts instead of solving a truncated system."""

    SPACE = [[1, -1, 0, 0, 0], [1, 0, -1, 0, 0]]
    SCHEDULE = [1, 1, 1, 1, 1]

    def test_solve_interconnect_raises(self):
        from repro.mapping.interconnect import mesh_primitives

        d_cols = matmul_bit_level(2, 2).dependences.columns()
        d = [[col[r] for col in d_cols] for r in range(5)]
        with pytest.raises(ValueError, match=r"P has 1 row\(s\).* 2 dim"):
            solve_interconnect(self.SPACE, d, self.SCHEDULE, mesh_primitives(1))

    def test_check_feasibility_raises(self):
        from repro.mapping.feasibility import check_feasibility
        from repro.mapping.interconnect import mesh_primitives
        from repro.mapping.transform import MappingMatrix

        t = MappingMatrix([*self.SPACE, self.SCHEDULE], "T-rows")
        with pytest.raises(ValueError, match=r"P has 1 row\(s\).* 2 dim"):
            check_feasibility(t, matmul_bit_level(2, 2), {"u": 2, "p": 2},
                              mesh_primitives(1))
