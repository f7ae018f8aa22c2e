"""Tests for schedules, execution time, optimality, and conflict detection."""

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import matmul_word_structure
from repro.mapping.conflicts import (
    enumerate_conflict_pairs,
    find_conflicts,
    is_conflict_free,
)
from repro.mapping.designs import fig4_mapping, fig5_mapping, word_level_mapping
from repro.mapping.schedule import (
    certify_time_optimal,
    execution_time,
    find_optimal_schedule,
    schedule_is_valid,
)
from repro.mapping.transform import MappingMatrix
from repro.util.linalg import mat_vec


class TestScheduleValidity:
    def test_matmul_word_schedule(self):
        alg = matmul_word_structure()
        assert schedule_is_valid([1, 1, 1], alg)
        assert not schedule_is_valid([1, 1, 0], alg)  # Π d̄₃ = 0
        assert not schedule_is_valid([-1, 1, 1], alg)

    def test_bit_level_schedule(self):
        alg = matmul_bit_level(3, 3)
        assert schedule_is_valid([1, 1, 1, 2, 1], alg)
        # [1,1,1,1,1] fails: Π d̄₆ = 1 - 1 = 0.
        assert not schedule_is_valid([1, 1, 1, 1, 1], alg)


class TestExecutionTime:
    def test_word_level(self):
        alg = matmul_word_structure()
        assert execution_time([1, 1, 1], alg, {"u": 4}) == 3 * 3 + 1

    def test_fig4_formula(self):
        for u, p in [(2, 2), (3, 3), (5, 4)]:
            alg = matmul_bit_level(u, p)
            t = execution_time([1, 1, 1, 2, 1], alg, {"u": u, "p": p})
            assert t == 3 * (u - 1) + 3 * (p - 1) + 1

    def test_matches_brute_force(self):
        alg = matmul_bit_level(2, 2)
        pi = [1, 1, 1, 2, 1]
        times = [
            sum(c * x for c, x in zip(pi, pt))
            for pt in alg.index_set.points({"u": 2, "p": 2})
        ]
        assert execution_time(pi, alg, {"u": 2, "p": 2}) == max(times) - min(times) + 1

    def test_negative_coefficient(self):
        alg = matmul_word_structure()
        # Π = [1, 1, -1] spread over [1,3]³: corner-to-corner by sign.
        assert execution_time([1, 1, -1], alg, {"u": 3}) == 2 + 2 + 2 + 1


class TestOptimalSchedule:
    def test_word_level_optimum(self):
        alg = matmul_word_structure()
        best = find_optimal_schedule(alg, {"u": 4}, coeff_bound=2)
        assert best is not None
        pi, t = best
        assert t == 10  # 3(u-1)+1: the known optimum [4]
        assert schedule_is_valid(pi, alg)

    def test_no_schedule_within_bound(self):
        from repro.structures.algorithm import Algorithm
        from repro.structures.dependence import DependenceVector
        from repro.structures.indexset import IndexSet

        # Antiparallel dependences: no linear schedule exists at all.
        alg = Algorithm(
            IndexSet.cube(1, 4),
            [DependenceVector([1]), DependenceVector([-1])],
        )
        assert find_optimal_schedule(alg, {}, coeff_bound=2) is None

    def test_fig4_certified_optimal(self):
        alg = matmul_bit_level(3, 3)
        t = fig4_mapping(3)
        ok, best = certify_time_optimal(t, alg, {"u": 3, "p": 3}, coeff_bound=2)
        assert ok
        assert best is not None and best[1] == 13

    def test_fig5_not_time_optimal(self):
        alg = matmul_bit_level(3, 3)
        t5 = fig5_mapping(3)
        ok, best = certify_time_optimal(t5, alg, {"u": 3, "p": 3}, coeff_bound=2)
        assert not ok  # Fig. 5 trades time for short wires
        assert best[1] < execution_time(t5.schedule, alg, {"u": 3, "p": 3})

    def test_interconnect_constrained_search(self):
        # Under the nearest-neighbour primitives of Fig. 5, the word
        # pipelining forces schedule coefficients >= p.
        from repro.mapping.designs import fig5_primitives

        alg = matmul_bit_level(2, 3)
        t5 = fig5_mapping(3)
        best = find_optimal_schedule(
            alg, {"u": 2, "p": 3}, coeff_bound=3,
            space=t5.space, primitives=fig5_primitives(),
        )
        assert best is not None
        pi, t = best
        assert pi[0] >= 3 and pi[1] >= 3


class TestConflicts:
    def test_fig4_conflict_free(self):
        alg = matmul_bit_level(3, 3)
        assert is_conflict_free(fig4_mapping(3), alg.index_set, {"u": 3, "p": 3})

    def test_word_level_conflict_free(self):
        alg = matmul_word_structure()
        assert is_conflict_free(word_level_mapping(), alg.index_set, {"u": 4})

    def test_conflicting_mapping_detected(self):
        # Project onto j1 only with schedule j1: every (j2, j3) collides.
        t = MappingMatrix([[1, 0, 0], [1, 0, 0]])
        alg = matmul_word_structure()
        assert not is_conflict_free(t, alg.index_set, {"u": 3})
        dirs = find_conflicts(t, alg.index_set, {"u": 3})
        assert all(mat_vec(t.rows, d) == [0, 0] for d in dirs)

    def test_find_conflicts_certificates(self):
        t = MappingMatrix([[1, 0, 0], [1, 0, 0]])
        alg = matmul_word_structure()
        pairs = enumerate_conflict_pairs(t, alg.index_set, {"u": 2}, limit=5)
        assert pairs
        for a, b in pairs:
            assert a != b
            assert mat_vec(t.rows, a) == mat_vec(t.rows, b)

    def test_wrong_p_creates_conflicts(self):
        # Fig. 4's block size must equal the true p: using a smaller block
        # factor makes distinct lattice points collide.
        alg = matmul_bit_level(2, 3)
        bad = MappingMatrix([[2, 0, 0, 1, 0], [0, 2, 0, 0, 1], [1, 1, 1, 2, 1]])
        assert not is_conflict_free(bad, alg.index_set, {"u": 2, "p": 3})

    def test_mapping_width_checked(self):
        from repro.mapping.feasibility import check_feasibility

        alg = matmul_word_structure()
        with pytest.raises(ValueError):
            check_feasibility(fig4_mapping(3), alg, {"u": 3})
