"""Tests for the design-space search engine (mapping.engine).

Covers the SearchConfig API, the deprecated per-parameter shim, the
unified conflict entry point, the feasibility short circuit, memoization,
and early stopping.
"""

import dataclasses

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import matmul_word_structure
from repro.mapping import designs
from repro.mapping.conflicts import find_conflicts
from repro.mapping.engine import (
    DesignCandidate,
    SearchConfig,
    run_search,
    search_designs,
)
from repro.mapping.feasibility import check_feasibility
from repro.mapping.memo import EvalCache
from repro.mapping.schedule import ranked_schedules
from repro.mapping.transform import MappingMatrix
from repro.structures.constrained import AffineConstraint, ConstrainedIndexSet
from repro.util.linalg import mat_vec


class TestSearchConfig:
    def test_frozen(self):
        config = SearchConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_candidates = 2

    def test_block_values_coerced_to_tuple(self):
        config = SearchConfig(block_values=[2, 3])
        assert config.block_values == (2, 3)
        assert hash(config)  # usable as a cache/memo key

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(target_space_dim=0)
        with pytest.raises(ValueError):
            SearchConfig(schedule_bound=-1)
        with pytest.raises(ValueError):
            SearchConfig(max_candidates=0)
        with pytest.raises(ValueError):
            SearchConfig(overcollect=0)

    def test_stop_after(self):
        assert SearchConfig(max_candidates=5, overcollect=4).stop_after == 20
        assert SearchConfig(max_candidates=None).stop_after is None
        assert SearchConfig(max_candidates=5, overcollect=None).stop_after is None


class TestLegacyShim:
    def test_config_object_is_silent(self):
        alg = matmul_word_structure()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cands = search_designs(
                alg, {"u": 2}, None,
                SearchConfig(schedule_bound=1, max_candidates=2),
            )
        assert cands

    def test_unknown_kwarg_rejected(self):
        alg = matmul_word_structure()
        with pytest.raises(TypeError, match="unexpected keyword"):
            search_designs(alg, {"u": 2}, None, bogus=1)


class TestConflictDispatch:
    def test_box_returns_directions(self):
        t = MappingMatrix([[1, 0, 0], [1, 0, 0]])
        alg = matmul_word_structure()
        out = find_conflicts(t, alg.index_set, {"u": 3})
        assert out
        for d in out:
            assert any(d)
            assert mat_vec(t.rows, d) == [0, 0]

    def test_constrained_returns_pairs(self):
        triangle = ConstrainedIndexSet(
            [1, 1], [3, 3], [AffineConstraint((1, -1))], ("i", "j")
        )
        t = MappingMatrix([[1, 0], [1, 0]])  # collapses j: conflicts on i==i
        out = find_conflicts(t, triangle, {}, limit=3)
        assert out
        for a, b in out:
            assert a != b
            assert mat_vec(t.rows, a) == mat_vec(t.rows, b)

    def test_cache_reuses_equivalent_queries(self):
        alg = matmul_word_structure()
        t = MappingMatrix([[1, 0, 0], [1, 0, 0]])
        cache = EvalCache()
        first = find_conflicts(t, alg.index_set, {"u": 3}, cache=cache)
        again = find_conflicts(t, alg.index_set, {"u": 3}, cache=cache)
        assert first == again
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_serves_every_limit_its_answer_covers(self):
        alg = matmul_word_structure()
        binding = {"u": 3}
        # A complete answer (shorter than its limit) serves any limit:
        # ker T is spanned by (0, 1, -3), outside the difference box.
        clean = MappingMatrix([[1, 0, 0], [0, 3, 1]])
        cache = EvalCache()
        assert find_conflicts(clean, alg.index_set, binding, limit=1,
                              cache=cache) == []
        for limit in (5, None):
            assert find_conflicts(clean, alg.index_set, binding,
                                  limit=limit, cache=cache) == []
        assert cache.hits == 2 and cache.misses == 1
        # A full answer serves smaller limits, truncated; a larger limit
        # is computed again.
        t = MappingMatrix([[1, 0, 0], [1, 0, 0]])
        every = find_conflicts(t, alg.index_set, binding)
        cache = EvalCache()
        assert find_conflicts(t, alg.index_set, binding, limit=3,
                              cache=cache) == every[:3]
        assert find_conflicts(t, alg.index_set, binding, limit=2,
                              cache=cache) == every[:2]
        assert cache.hits == 1 and cache.misses == 1
        assert find_conflicts(t, alg.index_set, binding, limit=5,
                              cache=cache) == every[:5]
        assert cache.hits == 1 and cache.misses == 2

    def test_cache_reinstantiates_a_changed_binding(self):
        # The cache keeps the last instantiated box; a binding that
        # changed since (even the same dict) is instantiated again.
        alg = matmul_word_structure()
        t = MappingMatrix([[1, 0, 0], [0, 3, 1]])
        binding = {"u": 3}
        cache = EvalCache()
        assert find_conflicts(t, alg.index_set, binding, cache=cache) == []
        binding["u"] = 4
        assert find_conflicts(t, alg.index_set, binding, cache=cache) == [
            (0, -1, 3), (0, 1, -3)
        ]


class TestShortCircuit:
    def test_rank_failure_skips_rest(self):
        alg = matmul_word_structure()
        # Two identical rows: rank 2 < k = 3.
        t = MappingMatrix([[1, 0, 0], [1, 0, 0], [1, 1, 1]])
        rep = check_feasibility(t, alg, {"u": 2})
        assert rep.rank_ok is False
        assert rep.coprime_ok is None
        assert rep.schedule_valid is None
        assert rep.interconnect_ok is None
        assert rep.conflict_free is None
        assert not rep.feasible
        assert "skipped" in rep.summary()
        assert rep.failed_conditions() == ["rank"]

    def test_full_report_fills_all_flags(self):
        alg = matmul_word_structure()
        t = MappingMatrix([[1, 0, 0], [1, 0, 0], [1, 1, 1]])
        rep = check_feasibility(t, alg, {"u": 2}, full_report=True)
        assert rep.rank_ok is False
        assert rep.coprime_ok is not None
        assert rep.schedule_valid is not None
        assert rep.conflict_free is not None

    def test_feasible_report_has_no_skips(self):
        alg = matmul_bit_level(2, 2, "II")
        rep = check_feasibility(
            designs.fig4_mapping(2), alg, {"u": 2, "p": 2},
            designs.fig4_primitives(2),
        )
        assert rep.feasible
        assert "skipped" not in rep.summary()


class TestRankedSchedules:
    def test_sorted_and_valid(self):
        alg = matmul_word_structure()
        ranked = ranked_schedules(alg, {"u": 3}, 1)
        times = [t for t, _ in ranked]
        assert times == sorted(times)
        assert (7, (1, 1, 1)) in ranked  # the known optimum at u=3

    def test_empty_when_bound_too_small(self):
        alg = matmul_word_structure()
        assert ranked_schedules(alg, {"u": 3}, 0) == []


class TestOvercollect:
    def test_exhaustive_at_least_as_good(self):
        alg = matmul_word_structure()
        base = SearchConfig(schedule_bound=1, max_candidates=2, overcollect=1)
        full = SearchConfig(schedule_bound=1, max_candidates=2,
                            overcollect=None)
        capped = run_search(alg, {"u": 3}, None, base)
        exhaustive = run_search(alg, {"u": 3}, None, full)
        assert capped and exhaustive
        assert len(capped) <= base.max_candidates
        # The early stop may miss later, faster designs -- never find
        # better ones than the full scan.
        assert exhaustive[0].time <= capped[0].time

    def test_results_are_candidates(self):
        alg = matmul_word_structure()
        cands = run_search(alg, {"u": 2}, None,
                           SearchConfig(schedule_bound=1, max_candidates=1))
        assert isinstance(cands[0], DesignCandidate)
        assert cands[0].report.feasible


@pytest.mark.parametrize("strategy", ["catalog", "solver"])
@pytest.mark.parametrize("dim, prims", [(2, "mesh1"), (3, "fig5")])
def test_run_search_rejects_primitive_rows_off_the_space_dimension(
    strategy, dim, prims
):
    """A P with a row count other than ``target_space_dim`` raises a
    ValueError naming both before any plan is built, on both strategies,
    instead of checking designs against a truncated condition 2."""
    from repro.mapping.interconnect import mesh_primitives

    primitives = mesh_primitives(1) if prims == "mesh1" else designs.fig5_primitives()
    rows = len(primitives)
    config = SearchConfig(target_space_dim=dim, block_values=[2],
                          schedule_bound=2, strategy=strategy)
    with pytest.raises(
        ValueError, match=rf"P has {rows} row\(s\).* {dim} dim"
    ):
        run_search(matmul_bit_level(2, 2), {"u": 2, "p": 2}, primitives, config)
