"""Tests for the solver-backed search, Pareto frontiers, and sharding.

Three contracts are pinned here:

* **equivalence** -- the branch-and-prune solver strategy returns designs
  identical to the exhaustive catalog strategy (same ``T``s, same
  metrics, same order) while enumerating far fewer candidates;
* **Pareto algebra** -- dominance is irreflexive/antisymmetric/transitive
  on random triples, frontiers are deterministic under permutation, and
  :func:`merge_frontiers` is associative over arbitrary partitions;
* **shard determinism** -- :func:`run_sharded_search` returns the
  designs and frontier of :func:`run_search` and reuses published blocks;
* **per-space equivalence** -- for every space :func:`enumerate_spaces`
  yields, :func:`evaluate_space_solver` (per-space tables, integer tests
  per schedule) returns the catalog evaluator's ``(Π, report)``.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import word_model_structure
from repro.mapping import designs, engine
from repro.mapping.engine import SearchConfig, run_search
from repro.mapping.interconnect import mesh_primitives
from repro.mapping.memo import EvalCache
from repro.mapping.pareto import (
    METRIC_NAMES,
    FrontierPoint,
    dominates,
    frontier_payload,
    merge_frontiers,
    pareto_frontier,
)
from repro.mapping.shard import run_sharded_search
from repro.mapping.solver import evaluate_space_solver
from repro import obs


def _signature(candidates):
    return [
        (c.mapping.rows, c.time, c.processors, c.wire_length)
        for c in candidates
    ]


def _word_instance():
    alg = word_model_structure(
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 2)
    )
    return alg, {}


def _bitlevel_instance():
    return matmul_bit_level(2, 2, "II"), {"u": 2, "p": 2}


def _primitives(name, p):
    return {
        "fig4": lambda: designs.fig4_primitives(p),
        "mesh": lambda: mesh_primitives(2),
        "none": lambda: None,
    }[name]()


class TestSearchConfigValidation:
    def test_strategy_choices(self):
        for strategy in ("auto", "catalog", "solver"):
            assert SearchConfig(strategy=strategy).strategy == strategy
        with pytest.raises(ValueError):
            SearchConfig(strategy="magic")

    def test_auto_resolves_to_solver(self):
        assert SearchConfig().resolved_strategy == "solver"
        assert SearchConfig(strategy="catalog").resolved_strategy == "catalog"

    def test_frontier_must_be_known_metrics(self):
        assert SearchConfig(frontier=["time"]).frontier == ("time",)
        with pytest.raises(ValueError):
            SearchConfig(frontier=("time", "beauty"))
        with pytest.raises(ValueError):
            SearchConfig(frontier=())

    def test_frontier_disables_early_stop(self):
        # The overcollect early-stop is a no-op under frontier=: a frontier
        # over an early-stopped prefix could drop non-dominated designs.
        capped = SearchConfig(max_candidates=5, overcollect=4)
        assert capped.stop_after == 20
        frontier = SearchConfig(
            max_candidates=5, overcollect=4, frontier=METRIC_NAMES
        )
        assert frontier.stop_after is None


class TestSolverEquivalence:
    @pytest.mark.parametrize("primitives", ["fig4", "mesh", "none"])
    def test_bitlevel_identical_to_catalog(self, primitives):
        alg, binding = _bitlevel_instance()
        prims = _primitives(primitives, 2)

        def run(strategy):
            return run_search(alg, binding, prims, SearchConfig(
                block_values=[2], max_candidates=5,
                strategy=strategy,
            ))

        assert _signature(run("solver")) == _signature(run("catalog"))

    def test_word_exhaustive_identical_to_catalog(self):
        alg, binding = _word_instance()

        def run(strategy):
            return run_search(alg, binding, mesh_primitives(2), SearchConfig(
                block_values=[2], max_candidates=None, overcollect=None,
                strategy=strategy,
            ))

        solver, catalog = run("solver"), run("catalog")
        assert solver, "exhaustive word search found no designs"
        assert _signature(solver) == _signature(catalog)

    def test_solver_enumerates_fewer_candidates(self):
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        counts = {}
        for strategy in ("catalog", "solver"):
            with obs.collecting() as reg:
                run_search(alg, binding, prims, SearchConfig(
                    block_values=[2], max_candidates=5,
                    strategy=strategy,
                ))
            counts[strategy] = reg.counters["mapping.candidates_enumerated"]
        assert counts["catalog"] >= 3 * counts["solver"]


class TestPerSpaceEquivalence:
    """The solver's once-per-space checks against the catalog walk.

    Every space the solver enumerates goes through both evaluators on
    separate memos; the solver must hand back the catalog's first
    feasible ``Π`` and an equal :class:`FeasibilityReport`, or ``None``
    for both.
    """

    @staticmethod
    def _assert_every_space_agrees(alg, binding, prims, config):
        ctx, spaces = engine._setup(alg, binding, prims, config)
        catalog = replace(
            ctx, strategy="catalog", cache=EvalCache(), solver_ctx=None
        )
        feasible = 0
        for space in spaces:
            got = evaluate_space_solver(space, ctx.solver_context())
            assert got == engine._evaluate_space(space, catalog), space
            feasible += got is not None
        return len(spaces), feasible

    @pytest.mark.parametrize("primitives", ["fig4", "mesh", "none"])
    @pytest.mark.parametrize("u,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_bitlevel_every_space(self, u, p, primitives):
        # Search reads only (J, D), which Expansions I and II share, so
        # one walk covers the spaces both expansions yield.
        first, second = matmul_bit_level(u, p, "I"), matmul_bit_level(u, p, "II")
        assert first.dependences.columns() == second.dependences.columns()
        binding = {"u": u, "p": p}
        assert first.index_set.bounds(binding) == (
            second.index_set.bounds(binding)
        )
        spaces, _ = self._assert_every_space_agrees(
            second, binding, _primitives(primitives, p),
            SearchConfig(block_values=[p]),
        )
        assert spaces

    def test_word_level_every_space(self):
        alg, binding = _word_instance()
        spaces, feasible = self._assert_every_space_agrees(
            alg, binding, mesh_primitives(2), SearchConfig(block_values=[2])
        )
        assert 0 < feasible < spaces


class TestParetoAlgebra:
    def test_dominance_axioms_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b, c = (
                tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)
            )
            assert not dominates(a, a)  # irreflexive
            assert not (dominates(a, b) and dominates(b, a))  # antisymmetric
            if dominates(a, b) and dominates(b, c):  # transitive
                assert dominates(a, c)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))

    def test_frontier_deterministic_under_permutation(self):
        rng = random.Random(11)
        points = [
            FrontierPoint(
                metrics=tuple(rng.randint(0, 3) for _ in range(3)),
                rows=((i,),),
            )
            for i in range(40)
        ]
        base = pareto_frontier(points)
        for _ in range(5):
            shuffled = points[:]
            rng.shuffle(shuffled)
            assert pareto_frontier(shuffled) == base

    def test_equal_metrics_tie_break_by_rows(self):
        a = FrontierPoint(metrics=(1, 1), rows=((2, 0),))
        b = FrontierPoint(metrics=(1, 1), rows=((1, 0),))
        # Both non-dominated (equal vectors dominate neither way), ordered
        # canonically by rows; exact duplicates collapse.
        assert pareto_frontier([a, b, a]) == [b, a]

    def test_merge_associative_over_partitions(self):
        rng = random.Random(23)
        points = [
            FrontierPoint(
                metrics=tuple(rng.randint(0, 4) for _ in range(3)),
                rows=((i, i + 1),),
            )
            for i in range(60)
        ]
        whole = pareto_frontier(points)
        for _ in range(5):
            shuffled = points[:]
            rng.shuffle(shuffled)
            cut1, cut2 = sorted(rng.sample(range(len(points)), 2))
            a, b, c = (
                shuffled[:cut1], shuffled[cut1:cut2], shuffled[cut2:]
            )
            left = merge_frontiers(merge_frontiers(a, b), c)
            right = merge_frontiers(a, merge_frontiers(b, c))
            flat = merge_frontiers(a, b, c)
            assert left == right == flat == whole
            assert frontier_payload(left) == frontier_payload(whole)


class TestFrontierSearch:
    def test_frontier_contains_only_nondominated_designs(self):
        alg, binding = _bitlevel_instance()
        found = run_search(alg, binding, mesh_primitives(2), SearchConfig(
            block_values=[2], max_candidates=None,
            frontier=METRIC_NAMES,
        ))
        assert found
        metrics = [
            (c.time, c.processors, c.wire_length) for c in found
        ]
        for i, m in enumerate(metrics):
            assert not any(
                dominates(other, m)
                for j, other in enumerate(metrics)
                if j != i
            )

    def test_frontier_ignores_overcollect(self):
        # overcollect would early-stop the scan after stop_after feasible
        # designs; under frontier= it must be ignored, so a tiny
        # overcollect returns the same frontier as none at all.
        alg, binding = _bitlevel_instance()

        def run(overcollect):
            return run_search(alg, binding, mesh_primitives(2), SearchConfig(
                block_values=[2], max_candidates=None,
                overcollect=overcollect, frontier=METRIC_NAMES,
            ))

        assert _signature(run(1)) == _signature(run(None))


class TestShardDeterminism:
    def _sharded_against_direct(self, config):
        """Check the sharded design list against :func:`run_search`."""
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        payload = json.loads(
            run_sharded_search(alg, binding, prims, config).payload_json()
        )
        direct = run_search(alg, binding, prims, config)
        assert direct
        assert [
            (tuple(map(tuple, d["rows"])), d["time"], d["processors"],
             d["wire_length"])
            for d in payload["designs"]
        ] == _signature(direct)
        return payload, direct

    def test_sharded_payload_matches_run_search_frontier(self):
        config = SearchConfig(
            block_values=[2], max_candidates=None,
            frontier=METRIC_NAMES,
        )
        payload, direct = self._sharded_against_direct(config)
        assert payload["frontier"] == [
            {
                "metrics": [c.time, c.processors, c.wire_length],
                "rows": [list(r) for r in c.mapping.rows],
            }
            for c in direct
        ]

    def test_sharded_payload_matches_run_search_ranked(self):
        config = SearchConfig(block_values=[2], max_candidates=5)
        payload, _direct = self._sharded_against_direct(config)
        assert payload["frontier"] is None

    def test_shard_frontier_matches_run_search(self):
        alg, binding = _bitlevel_instance()
        prims = mesh_primitives(2)
        config = SearchConfig(
            block_values=[2], max_candidates=None,
            frontier=METRIC_NAMES,
        )
        result = run_sharded_search(alg, binding, prims, config)
        direct = run_search(alg, binding, prims, config)
        assert result.frontier == [
            {
                "metrics": [c.time, c.processors, c.wire_length],
                "rows": [list(r) for r in c.mapping.rows],
            }
            for c in direct
        ]

    def test_shared_dir_reuses_published_blocks(self, tmp_path):
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        config = SearchConfig(block_values=[2], max_candidates=5)
        first = run_sharded_search(
            alg, binding, prims, config, shard_dir=str(tmp_path),
        )
        with obs.collecting() as reg:
            second = run_sharded_search(
                alg, binding, prims, config, shard_dir=str(tmp_path),
            )
        assert second.payload_json() == first.payload_json()
        # Every block was already published: none was evaluated again.
        assert reg.counters.get("mapping.shard.evaluated_blocks") == 0

    def test_missing_block_is_recovered_by_the_coordinator(self, tmp_path):
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        config = SearchConfig(block_values=[2], max_candidates=5)
        first = run_sharded_search(
            alg, binding, prims, config, shard_dir=str(tmp_path),
        )
        assert first.blocks > 1
        # A worker died before publishing block 1.
        (lost,) = tmp_path.rglob(f"{first.run_key}-block-1.json")
        lost.unlink()
        with obs.collecting() as reg:
            second = run_sharded_search(
                alg, binding, prims, config, shard_dir=str(tmp_path),
            )
        assert second.payload_json() == first.payload_json()
        assert reg.counters.get("mapping.shard.evaluated_blocks") == 1
        assert len(list(tmp_path.rglob(f"{first.run_key}-block-1.json"))) == 1

    def test_block_counters_reach_the_registry(self, tmp_path):
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        config = SearchConfig(block_values=[2], max_candidates=5)
        with obs.collecting() as reg:
            result = run_sharded_search(
                alg, binding, prims, config, shard_dir=str(tmp_path),
            )
        enumerated = result.metrics["mapping.candidates_enumerated"]
        assert enumerated > 0
        assert reg.counters["mapping.candidates_enumerated"] == enumerated
        assert reg.counters["mapping.designs_found"] == len(result.designs)
        assert reg.counters["mapping.shard.evaluated_blocks"] == result.blocks
        # Reused blocks add nothing.
        with obs.collecting() as reg:
            run_sharded_search(
                alg, binding, prims, config, shard_dir=str(tmp_path),
            )
        assert reg.counters.get("mapping.candidates_enumerated", 0) == 0
