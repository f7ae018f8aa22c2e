"""Tests for the solver-backed search, Pareto frontiers, and sharding.

Three contracts are pinned here:

* **equivalence** -- the branch-and-prune solver strategy returns designs
  identical to the exhaustive catalog strategy (same ``T``s, same
  metrics, same order) while enumerating far fewer candidates;
* **Pareto algebra** -- dominance is irreflexive/antisymmetric/transitive
  on random triples, frontiers are deterministic under permutation, and
  :func:`merge_frontiers` is associative over arbitrary partitions;
* **shard determinism** -- :func:`run_sharded_search` produces
  byte-identical ``payload_json()`` for workers 1/2/4 and matches
  :func:`run_search`.
"""

import json
import random

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import word_model_structure
from repro.mapping import designs
from repro.mapping.engine import SearchConfig, run_search
from repro.mapping.interconnect import mesh_primitives
from repro.mapping.pareto import (
    METRIC_NAMES,
    FrontierPoint,
    dominates,
    frontier_payload,
    merge_frontiers,
    pareto_frontier,
)
from repro.mapping.shard import run_sharded_search
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
        prims = {
            "fig4": lambda: designs.fig4_primitives(2),
            "mesh": lambda: mesh_primitives(2),
            "none": lambda: None,
        }[primitives]()

        def run(strategy):
            return run_search(alg, binding, prims, SearchConfig(
                block_values=[2], max_candidates=5,
                strategy=strategy, persist_cache=False,
            ))

        assert _signature(run("solver")) == _signature(run("catalog"))

    def test_word_exhaustive_identical_to_catalog(self):
        alg, binding = _word_instance()

        def run(strategy):
            return run_search(alg, binding, mesh_primitives(2), SearchConfig(
                block_values=[2], max_candidates=None, overcollect=None,
                strategy=strategy, persist_cache=False,
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
                    strategy=strategy, persist_cache=False,
                ))
            counts[strategy] = reg.counters["mapping.candidates_enumerated"]
        assert counts["catalog"] >= 3 * counts["solver"]


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
            frontier=METRIC_NAMES, persist_cache=False,
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
                persist_cache=False,
            ))

        assert _signature(run(1)) == _signature(run(None))


class TestShardDeterminism:
    def _payloads(self, config, worker_counts=(1, 2, 4)):
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        return alg, binding, prims, [
            run_sharded_search(
                alg, binding, prims, config, workers=w
            ).payload_json()
            for w in worker_counts
        ]

    def test_byte_identical_across_worker_counts_frontier(self):
        config = SearchConfig(
            block_values=[2], max_candidates=None,
            frontier=METRIC_NAMES, persist_cache=False,
        )
        _alg, _binding, _prims, payloads = self._payloads(config)
        assert payloads[0] == payloads[1] == payloads[2]

    def test_byte_identical_across_worker_counts_ranked(self):
        config = SearchConfig(
            block_values=[2], max_candidates=5, persist_cache=False,
        )
        alg, binding, prims, payloads = self._payloads(config)
        assert payloads[0] == payloads[1] == payloads[2]
        # ... and the sharded design list equals the in-process search.
        direct = run_search(alg, binding, prims, config)
        sharded = json.loads(payloads[0])["designs"]
        assert [
            (tuple(map(tuple, d["rows"])), d["time"], d["processors"],
             d["wire_length"])
            for d in sharded
        ] == _signature(direct)

    def test_shard_frontier_matches_run_search(self):
        alg, binding = _bitlevel_instance()
        prims = mesh_primitives(2)
        config = SearchConfig(
            block_values=[2], max_candidates=None,
            frontier=METRIC_NAMES, persist_cache=False,
        )
        result = run_sharded_search(alg, binding, prims, config, workers=2)
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
        config = SearchConfig(
            block_values=[2], max_candidates=5, persist_cache=False,
        )
        first = run_sharded_search(
            alg, binding, prims, config,
            workers=1, shard_dir=str(tmp_path),
        )
        with obs.collecting() as reg:
            second = run_sharded_search(
                alg, binding, prims, config,
                workers=1, shard_dir=str(tmp_path),
            )
        assert second.payload_json() == first.payload_json()
        # Every block was already published: no new claims were needed.
        assert reg.counters.get("mapping.shard.claims", 0) == 0

    def test_missing_block_is_recovered_by_the_coordinator(self, tmp_path):
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        config = SearchConfig(
            block_values=[2], max_candidates=5, persist_cache=False,
        )
        first = run_sharded_search(
            alg, binding, prims, config,
            workers=1, shard_dir=str(tmp_path),
        )
        assert first.blocks > 1
        # A worker claimed block 1 but died before publishing it.
        (lost,) = tmp_path.rglob(f"{first.run_key}-block-1.json")
        lost.unlink()
        with obs.collecting() as reg:
            second = run_sharded_search(
                alg, binding, prims, config,
                workers=1, shard_dir=str(tmp_path),
            )
        assert second.payload_json() == first.payload_json()
        assert reg.counters.get("mapping.shard.recovered_blocks") == 1
        # The ledger still records the claim: nobody re-claims the block.
        assert reg.counters.get("mapping.shard.claims", 0) == 0
        assert len(list(tmp_path.rglob(f"{first.run_key}-block-1.json"))) == 1
