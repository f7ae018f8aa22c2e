"""Tests for the design-space search engine: catalog and ranked search."""

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import matmul_word_structure
from repro.mapping import designs
from repro.mapping.engine import (
    DesignCandidate,
    SearchConfig,
    run_search,
    space_map_catalog,
)


class TestCatalog:
    def test_units_present(self):
        rows = space_map_catalog(3)
        assert (1, 0, 0) in rows
        assert (0, 0, 1) in rows

    def test_pairwise_combinations(self):
        rows = space_map_catalog(2)
        assert (1, 1) in rows
        assert (1, -1) in rows

    def test_blocked_rows(self):
        rows = space_map_catalog(3, block_values=[4])
        assert (4, 1, 0) in rows
        assert (0, 4, 1) in rows

    def test_fig4_rows_reachable(self):
        # The paper's S rows are in the catalog with block value p.
        rows = space_map_catalog(5, block_values=[3])
        assert (3, 0, 0, 1, 0) in rows
        assert (0, 3, 0, 0, 1) in rows

    def test_no_duplicates(self):
        rows = space_map_catalog(4, block_values=[2, 2])
        assert len(rows) == len(set(rows))


class TestSearchWordLevel:
    def test_recovers_known_optimum(self):
        # Word-level matmul: the search must find a design as fast as the
        # classical T_w with t = 3(u-1)+1.
        alg = matmul_word_structure()
        cands = run_search(alg, {"u": 3}, None, SearchConfig(
            target_space_dim=2, schedule_bound=1, max_candidates=5,
        ))
        assert cands
        assert cands[0].time == 7  # 3(u-1)+1 at u=3
        # All results are genuinely feasible and sorted by (time, PEs).
        times = [(c.time, c.processors) for c in cands]
        assert times == sorted(times)
        for c in cands:
            assert c.report.feasible

    def test_candidate_repr(self):
        alg = matmul_word_structure()
        cands = run_search(alg, {"u": 2}, None, SearchConfig(
            schedule_bound=1, max_candidates=1,
        ))
        assert "t=" in repr(cands[0])


class TestSearchBitLevel:
    def test_matches_or_beats_fig4_time(self):
        u, p = 2, 2
        alg = matmul_bit_level(u, p, "II")
        cands = run_search(
            alg, {"u": u, "p": p}, designs.fig4_primitives(p),
            SearchConfig(target_space_dim=2, block_values=[p],
                         schedule_bound=2, max_candidates=3),
        )
        assert cands
        assert cands[0].time <= designs.t_fig4(u, p)

    def test_designs_conflict_free(self):
        u, p = 2, 2
        alg = matmul_bit_level(u, p, "II")
        cands = run_search(
            alg, {"u": u, "p": p}, designs.fig4_primitives(p),
            SearchConfig(block_values=[p], max_candidates=2),
        )
        for c in cands:
            assert c.report.conflict_free
            assert c.report.interconnect_ok

    def test_linear_array_needs_wide_schedules(self):
        # With small schedule coefficients a 1-D map of the 5-D algorithm
        # cannot be injective: the search correctly returns nothing.
        alg = matmul_bit_level(2, 2, "II")
        cands = run_search(alg, {"u": 2, "p": 2}, None, SearchConfig(
            target_space_dim=1, block_values=[2], max_candidates=2,
        ))
        assert cands == []

    def test_unconstrained_interconnect(self):
        alg = matmul_bit_level(2, 2, "II")
        cands = run_search(alg, {"u": 2, "p": 2}, None, SearchConfig(
            block_values=[2], max_candidates=2,
        ))
        assert cands
        assert all(c.report.interconnect is None for c in cands)
