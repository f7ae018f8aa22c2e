"""Tests for feasibility reports, the paper's designs, and geometry."""

import itertools

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import matmul_word_structure
from repro.mapping import designs
from repro.mapping.engine import SearchConfig, run_search
from repro.mapping.feasibility import check_feasibility
from repro.mapping.spacetime import processor_count, processor_set
from repro.mapping.transform import MappingMatrix


@pytest.fixture(scope="module")
def alg33():
    return matmul_bit_level(3, 3, "II")


BINDING33 = {"u": 3, "p": 3}


class TestFeasibilityFig4:
    def test_all_conditions_pass(self, alg33):
        rep = check_feasibility(
            designs.fig4_mapping(3), alg33, BINDING33,
            primitives=designs.fig4_primitives(3),
        )
        assert rep.feasible
        assert rep.schedule_valid
        assert rep.interconnect_ok
        assert rep.conflict_free
        assert rep.rank_ok
        assert rep.coprime_ok
        assert "ok" in rep.summary()

    def test_without_primitives_condition2_trivial(self, alg33):
        rep = check_feasibility(designs.fig4_mapping(3), alg33, BINDING33)
        assert rep.interconnect is None
        assert rep.feasible

    def test_bad_schedule_fails_condition1(self, alg33):
        t = MappingMatrix([[3, 0, 0, 1, 0], [0, 3, 0, 0, 1], [1, 1, 1, 1, 1]])
        rep = check_feasibility(t, alg33, BINDING33)
        assert not rep.schedule_valid
        assert not rep.feasible

    def test_rank_deficient_fails_condition4(self, alg33):
        t = MappingMatrix(
            [[3, 0, 0, 1, 0], [3, 0, 0, 1, 0], [1, 1, 1, 2, 1]]
        )
        rep = check_feasibility(t, alg33, BINDING33)
        assert not rep.rank_ok

    def test_non_coprime_fails_condition5(self, alg33):
        t = MappingMatrix(
            [[6, 0, 0, 2, 0], [0, 6, 0, 0, 2], [2, 2, 2, 4, 2]]
        )
        rep = check_feasibility(t, alg33, BINDING33)
        assert not rep.coprime_ok

    def test_mesh_only_fails_condition2(self, alg33):
        from repro.mapping.interconnect import mesh_primitives

        rep = check_feasibility(
            designs.fig4_mapping(3), alg33, BINDING33,
            primitives=mesh_primitives(2),
        )
        assert not rep.interconnect_ok
        assert not rep.feasible


class TestDesignFormulas:
    @pytest.mark.parametrize("u,p", [(2, 2), (3, 3), (5, 4), (8, 6)])
    def test_t_fig4(self, u, p):
        assert designs.t_fig4(u, p) == 3 * (u - 1) + 3 * (p - 1) + 1

    @pytest.mark.parametrize("u,p", [(2, 2), (3, 3), (5, 4)])
    def test_t_fig5_vs_printed(self, u, p):
        assert designs.t_fig5(u, p) - designs.t_fig5_printed(u, p) == 2 * (u - 1)

    def test_fig4_faster_than_fig5(self):
        for u, p in [(3, 3), (8, 8), (16, 8)]:
            assert designs.t_fig4(u, p) < designs.t_fig5(u, p)

    def test_processor_formulas(self):
        assert designs.fig4_processor_count(3, 4) == 9 * 16
        assert designs.fig5_processor_count(3, 4) == 144

    def test_word_level_time(self):
        # (3(u-1)+1) * t_b.
        assert designs.word_level_time(4, 3, "add-shift") == 10 * 21
        assert designs.word_level_time(4, 3, "carry-save") == 10 * 9

    @staticmethod
    def _speedup(u, p, arithmetic):
        word = designs.word_level_time(u, p, arithmetic)
        return word / designs.t_fig4(u, p)

    def test_speedup_increases_with_p(self):
        s = [self._speedup(32, p, "add-shift") for p in (2, 4, 8, 16)]
        assert s == sorted(s)
        assert s[-1] > 100

    def test_speedup_carry_save_smaller(self):
        assert self._speedup(32, 8, "carry-save") < self._speedup(
            32, 8, "add-shift"
        )


class TestGeometry:
    def test_fig4_processor_count_exact(self, alg33):
        t = designs.fig4_mapping(3)
        assert processor_count(t, alg33.index_set, BINDING33) == 81

    def test_fig5_same_processor_set(self, alg33):
        # Figs. 4 and 5 share the space mapping S.
        s4 = processor_set(designs.fig4_mapping(3), alg33.index_set, BINDING33)
        s5 = processor_set(designs.fig5_mapping(3), alg33.index_set, BINDING33)
        assert s4 == s5

    def test_word_level_count(self):
        alg = matmul_word_structure()
        assert processor_count(designs.word_level_mapping(), alg.index_set, {"u": 4}) == 16

    def test_closed_forms_4_2_and_4_6(self):
        for u, p in itertools.product(range(2, 7), repeat=2):
            index_set, binding = matmul_bit_level(u, p).index_set, {"u": u, "p": p}
            assert processor_count(
                designs.fig4_mapping(p), index_set, binding
            ) == designs.fig4_processor_count(u, p)
            assert processor_count(
                designs.fig5_mapping(p), index_set, binding
            ) == designs.fig5_processor_count(u, p)

    def test_every_design_flow_candidate_matches_processor_set(self):
        checked = 0
        for u, p, e in itertools.product((2, 3, 4), (2, 3, 4), ("I", "II")):
            alg, binding = matmul_bit_level(u, p, e), {"u": u, "p": p}
            for cand in run_search(
                alg, binding, designs.fig4_primitives(p),
                SearchConfig(target_space_dim=2, block_values=[p],
                             schedule_bound=2, max_candidates=5),
            ):
                assert cand.processors == len(
                    processor_set(cand.mapping, alg.index_set, binding)
                )
                checked += 1
        assert checked == 90

    def test_wide_image_counts_by_enumeration(self, alg33):
        # Entries this large could overflow the int64 key: the reference
        # set counts instead.
        t = MappingMatrix([[1 << 40, 1, 0, 0, 0], [0, 0, 1 << 40, 1, 0],
                           [1, 1, 1, 2, 1]])
        assert processor_count(t, alg33.index_set, BINDING33) == len(
            processor_set(t, alg33.index_set, BINDING33)
        )
        # A schedule-only T (no space rows) maps J onto one processor.
        schedule_only = MappingMatrix([[1, 1, 1, 2, 1]])
        assert processor_count(schedule_only, alg33.index_set, BINDING33) == 1

    @pytest.mark.parametrize("u,p", [(2, 2), (2, 3), (3, 2)])
    def test_formula_matches_enumeration(self, u, p):
        alg = matmul_bit_level(u, p)
        t = designs.fig4_mapping(p)
        assert (
            processor_count(t, alg.index_set, {"u": u, "p": p})
            == designs.fig4_processor_count(u, p)
        )
