"""Tests for the solver-backed search, its plans, and Pareto frontiers.

These contracts are pinned here:

* **equivalence** -- the branch-and-prune solver strategy returns designs
  identical to the exhaustive catalog strategy (same ``T``s, same
  metrics, same order) while enumerating far fewer candidates;
* **Pareto algebra** -- dominance is irreflexive/antisymmetric/transitive
  on random triples, and frontiers are deterministic under permutation;
* **per-space equivalence** -- for every space a
  :class:`~repro.mapping.solver.SearchPlan` holds, its walk's stream
  (binding-free cuts, then the conflict screen) yields the catalog
  evaluator's ``(Π, report)``, or nothing for both;
* **an exact screen** -- ``check_feasibility`` only certifies designs
  the solver returns, on box and affine-constrained index sets alike,
  and the cut counters a search publishes once are the per-space ones;
* **plan reuse** -- a search that reuses a memoized plan returns the
  designs and ``mapping.*`` counters of a cold one.
"""

import hashlib
import itertools
import json
import random
import sys
import threading
from dataclasses import replace

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.ir.builders import lu_word_structure, word_model_structure
from repro.mapping import conflicts, designs, engine, solver
from repro.mapping.engine import SearchConfig, run_search
from repro.mapping.interconnect import mesh_primitives
from repro.mapping.schedule import ranked_schedules
from repro.mapping.pareto import (
    METRIC_NAMES,
    FrontierPoint,
    dominates,
    pareto_frontier,
)
from repro.mapping.solver import clear_search_plans, search_plan
from repro.mapping.transform import MappingMatrix
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
        for strategy in ("catalog", "solver"):
            assert SearchConfig(strategy=strategy).strategy == strategy
        for strategy in ("magic", "auto"):
            with pytest.raises(ValueError, match="strategy"):
                SearchConfig(strategy=strategy)

    def test_solver_is_the_default(self):
        assert SearchConfig().strategy == "solver"

    def test_cli_refuses_auto(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["search", "--u", "2", "--p", "2", "--strategy", "auto"])
        assert exc.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err

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


def _certified_case(kind, a, b):
    """``(algorithm, binding, primitives, config)``: an exhaustive search
    of the triangular LU set onto a ``b``-D mesh, or the capped fig4
    search of a ``design_flow`` job at ``u=a, p=b``."""
    if kind == "lu":
        return lu_word_structure(a), {"n": a}, mesh_primitives(b), (
            SearchConfig(target_space_dim=b, block_values=[2],
                         max_candidates=None, overcollect=None)
        )
    return matmul_bit_level(a, b, "II"), {"u": a, "p": b}, (
        designs.fig4_primitives(b)
    ), SearchConfig(block_values=[b], max_candidates=5)


class TestExactScreen:
    """The conflict screen decides condition 3 exactly, so every design
    the solver hands to ``check_feasibility`` is feasible -- including on
    an affine-constrained index set, where the pair enumeration of
    ``find_conflicts`` decides it for every open pair."""

    @pytest.mark.parametrize("kind,a,b", [
        ("lu", 3, 1), ("lu", 3, 2), ("lu", 4, 1), ("lu", 4, 2),
        ("fig4", 2, 2), ("fig4", 2, 3), ("fig4", 3, 2), ("fig4", 3, 3),
    ])
    def test_check_feasibility_only_certifies(self, kind, a, b):
        alg, binding, prims, config = _certified_case(kind, a, b)
        catalog = run_search(
            alg, binding, prims, replace(config, strategy="catalog")
        )
        clear_search_plans()
        with obs.collecting() as reg:
            found = run_search(
                alg, binding, prims, replace(config, strategy="solver")
            )
        assert found and _signature(found) == _signature(catalog)
        counters = reg.counters
        assert counters["mapping.pruned"] == 0
        assert counters["mapping.candidates_enumerated"] == (
            counters["mapping.feasible"]
        )

    def test_screen_enumerates_only_what_it_passes(self, monkeypatch):
        # The 18 design_flow instances from cold plans.  A conflicting
        # pair is answered by a reduced nullspace basis vector inside the
        # difference box, so enumeration only certifies conflict-freedom,
        # once per pair (the certifying check reuses the screen's
        # complete answer).  The ranked lists are those recorded before
        # the basis was reduced, and the cut counters those published
        # once per space before the walk published them once per search.
        enumerated = []
        real = conflicts._enumerate_directions

        def counting(*args):
            out = real(*args)
            enumerated.append(out)
            return out

        monkeypatch.setattr(conflicts, "_enumerate_directions", counting)
        clear_search_plans()
        ranked = []
        with obs.collecting() as reg:
            for u, p, e in itertools.product((2, 3, 4), (2, 3, 4), ("I", "II")):
                found = run_search(
                    matmul_bit_level(u, p, e), {"u": u, "p": p},
                    designs.fig4_primitives(p),
                    SearchConfig(block_values=[p], max_candidates=5),
                )
                ranked.append([
                    [[list(r) for r in c.mapping.rows], c.time,
                     c.processors, c.wire_length]
                    for c in found
                ])
        clear_search_plans()
        assert enumerated and not any(enumerated)
        counters = reg.counters
        assert len(enumerated) <= counters["mapping.conflict_checks"]
        assert {
            name: counters.get(name, 0) for name in (
                "mapping.solver.pruned.deadline",
                "mapping.pruned.coprime_precheck",
                "mapping.solver.pruned.rank",
                "mapping.solver.pruned.interconnect",
                "mapping.solver.pruned.conflict_screen",
                "mapping.solver.pruned.rank_subtree",
                "mapping.candidates_enumerated",
                "mapping.feasible",
                "mapping.conflict_checks",
                "mapping.designs_found",
            )
        } == {
            "mapping.solver.pruned.deadline": 0,
            "mapping.pruned.coprime_precheck": 0,
            "mapping.solver.pruned.rank": 0,
            "mapping.solver.pruned.interconnect": 136_080,
            "mapping.solver.pruned.conflict_screen": 22_456,
            "mapping.solver.pruned.rank_subtree": 180,
            "mapping.candidates_enumerated": 308,
            "mapping.feasible": 308,
            "mapping.conflict_checks": 308,
            "mapping.designs_found": 90,
        }
        assert hashlib.sha256(json.dumps(ranked).encode()).hexdigest() == (
            "578a07bc1ddb0319f52e9b7ea81b3411a0c266c1d45273f67f37691aac79cdc1"
        )

    def test_screen_error_names_the_design(self, monkeypatch):
        # A screen that misses a conflict must not pass silently: the
        # certifying check rejects the design and the search says which.
        # The seam is the one the dropped-conflict-screen mutation
        # replaces: the whole screen, its array step included.
        from repro.verify.runner import MUTATIONS

        mutation = MUTATIONS["dropped-conflict-screen"]
        module, attr = mutation.seam
        assert module == solver.__name__
        alg, binding, prims, config = _certified_case("fig4", 2, 2)
        monkeypatch.setattr(solver, attr, mutation.mutant)
        clear_search_plans()
        with pytest.raises(
            RuntimeError, match=r"MappingMatrix .*no-conflict:FAIL"
        ):
            run_search(alg, binding, prims, config)
        clear_search_plans()


class TestPerSpaceEquivalence:
    """The solver's walk against the catalog walk, space by space.

    Both walks' streams run over every space the solver plans, on
    separate memos (``stop_after=None``); for each space the solver must
    yield the catalog's first feasible ``Π`` and an equal
    :class:`FeasibilityReport`, or nothing for both.
    """

    @staticmethod
    def _assert_every_space_agrees(alg, binding, prims, config):
        clear_search_plans()
        walk = search_plan(alg, prims, config).walk(alg, binding, prims)
        catalog = engine._CatalogWalk(
            alg, binding, prims,
            ranked_schedules(alg, binding, config.schedule_bound),
            walk.spaces,
        )
        got = {index: (pi, report) for index, pi, report in walk.stream(None)}
        want = {
            index: (pi, report) for index, pi, report in catalog.stream(None)
        }
        for index, space in enumerate(walk.spaces):
            assert got.get(index) == want.get(index), space
        assert set(got) <= set(range(len(walk.spaces)))
        return len(walk.spaces), len(got)

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

    def test_triangular_every_space(self, monkeypatch):
        # On the affine-constrained LU set the array step must not run:
        # a basis vector inside the bounding box need not be a conflict,
        # so every open pair goes to find_conflicts, in order, until one
        # is conflict-free.
        alg, binding, prims, config = _certified_case("lu", 4, 1)
        assert alg.index_set.is_constrained
        screened = {}
        real = solver.find_conflicts

        def recording(mapping, *args, **kwargs):
            screened[mapping] = real(mapping, *args, **kwargs)
            return screened[mapping]

        monkeypatch.setattr(solver, "find_conflicts", recording)
        with obs.collecting() as reg:
            spaces, feasible = self._assert_every_space_agrees(
                alg, binding, prims, config
            )
        clear_search_plans()
        assert 0 < feasible < spaces
        assert len(screened) == feasible + reg.counters[
            "mapping.solver.pruned.conflict_screen"
        ]
        # Some pair the enumeration proved conflict-free has a basis
        # vector inside the bounding box, which the array step would
        # have taken for a conflict.
        widths = [hi - lo for lo, hi in alg.index_set.bounds(binding)]
        assert any(
            all(abs(x) <= w for x, w in zip(vec, widths))
            for mapping, witnesses in screened.items() if not witnesses
            for vec in mapping.nullspace()
        )


class TestInt64Range:
    """The screen's array step holds |basis| entries and box widths in
    ``int64``.  A value beyond that range must neither raise nor wrap: an
    entry is stored as the largest ``int64``, a width as one less, so such
    a pair never fits and goes to ``find_conflicts``, which decides it on
    Python ints."""

    CONFIG = SearchConfig(target_space_dim=1, block_values=[2])
    H = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def _walk(self, uppers):
        alg = word_model_structure(*self.H, (0, 0, 0), uppers)
        return alg, search_plan(alg, None, self.CONFIG).walk(alg, {}, None)

    def test_entries_and_widths_are_clipped(self):
        _, walk = self._walk((2**71, -2**70, 1))
        big = solver._I64_MAX
        assert walk.widths.tolist() == [big - 1, -1, 1]
        rows = (
            [[1, 0, 0], [0, 1, 2]],
            [[1, 0, 0], [0, 1, 2**70]],
            [[1, 0, 0], [0, 1, 2**63]],  # basis entry -2**63: |x| wraps
        )
        got = [walk.plan._abs_basis([MappingMatrix(r)]).tolist() for r in rows]
        assert got == [[[[0, 2, 1]]], [[[0, big, 1]]], [[[0, big, 1]]]]

    def test_pair_beyond_int64_goes_to_find_conflicts(self, monkeypatch):
        alg, walk = self._walk((2**71, 2**71, 2**71))
        mapping = MappingMatrix([[1, 0, 0], [0, 1, 2**70]])
        block = solver._Block(
            0, 1, [bytes([solver._OPEN])], None, [0], [0], [mapping],
            walk.plan._abs_basis([mapping]),
        )
        asked = []
        real = solver.find_conflicts

        def recording(t, *args, **kwargs):
            asked.append(t)
            return real(t, *args, **kwargs)

        monkeypatch.setattr(solver, "find_conflicts", recording)
        passed = list(solver._screen(walk, block))
        # (0, -2**70, 1) fits the real box, so find_conflicts finds it.
        assert asked == [mapping] and passed == []

    def test_search_beyond_int64(self):
        # Every open pair has a short basis vector inside the huge box.
        alg, _ = self._walk((2**70, 2**70, 2**70))
        clear_search_plans()
        with obs.collecting() as reg:
            assert run_search(alg, {}, None, self.CONFIG) == []
        assert reg.counters["mapping.solver.pruned.conflict_screen"] > 0
        clear_search_plans()


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


def _mapping_counters(reg, drop_memo_split=True):
    """The run's ``mapping.*`` counters; the memo split (cache and plan
    hits/misses) is the one part a reused plan may change."""
    split = ("mapping.cache_hits", "mapping.cache_misses",
             "mapping.plan_hits", "mapping.plan_misses")
    return {
        k: v for k, v in reg.counters.items()
        if k.startswith("mapping.") and not (drop_memo_split and k in split)
    }


class TestSearchPlan:
    """A search walking a memoized plan equals one that built it."""

    CONFIGS = {
        "ranked": SearchConfig(block_values=[2], max_candidates=5),
        "exhaustive": SearchConfig(
            block_values=[2], max_candidates=None, overcollect=None
        ),
        "frontier": SearchConfig(
            block_values=[2], max_candidates=None, frontier=METRIC_NAMES
        ),
    }

    @staticmethod
    def _search(alg, binding, prims, config):
        with obs.collecting() as reg:
            found = run_search(alg, binding, prims, config)
        return _signature(found), reg

    @pytest.mark.parametrize("primitives,mode", [
        ("fig4", "ranked"), ("mesh", "ranked"), ("none", "ranked"),
        ("mesh", "exhaustive"), ("fig4", "frontier"),
    ])
    def test_warm_search_equals_cold(self, primitives, mode):
        alg, binding = _bitlevel_instance()
        prims, config = _primitives(primitives, 2), self.CONFIGS[mode]
        clear_search_plans()
        cold, cold_reg = self._search(alg, binding, prims, config)
        # Another binding (and expansion) of the same (D, P, config)
        # builds the plan the second search walks.
        clear_search_plans()
        run_search(matmul_bit_level(1, 2, "I"), {"u": 1, "p": 2}, prims,
                   config)
        warm, warm_reg = self._search(alg, binding, prims, config)
        assert cold and warm == cold
        assert cold_reg.counters["mapping.plan_misses"] == 1
        assert warm_reg.counters["mapping.plan_hits"] == 1
        assert "mapping.plan_misses" not in warm_reg.counters
        assert _mapping_counters(warm_reg) == _mapping_counters(cold_reg)
        assert warm_reg.gauges == cold_reg.gauges

    def test_plan_key_covers_every_binding_free_input(self):
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        clear_search_plans()
        base = SearchConfig(block_values=[2], max_candidates=5)
        keys = [
            (prims, base),
            (prims, replace(base, max_candidates=3)),  # not read by plans
            (mesh_primitives(2), base),
            (prims, replace(base, block_values=(3,))),
            (prims, replace(base, schedule_bound=1)),
            (None, base),
            (None, replace(base, target_space_dim=1)),
        ]
        with obs.collecting() as reg:
            for p, config in keys:
                run_search(alg, binding, p, config)
            # Same bounds, other dependences: the word-level instance.
            run_search(*_word_instance(), None, base)
        assert reg.counters["mapping.plan_hits"] == 1
        assert reg.counters["mapping.plan_misses"] == 7

    def test_memo_is_bounded_and_clearable(self):
        alg, binding = _word_instance()
        clear_search_plans()
        for b in range(2, 3 + solver._PLAN_CAPACITY):
            run_search(alg, binding, None, SearchConfig(block_values=[b]))
        assert len(solver._PLANS) == solver._PLAN_CAPACITY
        clear_search_plans()
        assert not solver._PLANS

    def test_concurrent_searches_share_one_plan(self):
        # More threads than cores, switching often: every thread walks
        # the plan while others may still be settling its blocks.
        alg, binding = _bitlevel_instance()
        prims = designs.fig4_primitives(2)
        config = SearchConfig(block_values=[2], max_candidates=5)
        clear_search_plans()
        cold = _signature(run_search(alg, binding, prims, config))
        clear_search_plans()
        barrier = threading.Barrier(4)
        results = []

        def search():
            barrier.wait(timeout=60)
            results.append(_signature(run_search(alg, binding, prims, config)))

        threads = [threading.Thread(target=search) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [cold] * 4
        assert len(solver._PLANS) == 1

    @pytest.mark.parametrize(
        "mutation", ["tight-deadline", "dropped-conflict-screen"]
    )
    def test_mutation_caught_after_plans_were_built(self, mutation):
        from repro.verify import run_mutation_check
        from repro.verify.runner import VerifyConfig, run_verification

        # Ten cases need fewer plans than the memo holds, so every plan
        # the check would walk is already built, with the real seams ...
        clean = VerifyConfig(seed=0, cases=10, oracles=("search",))
        assert not run_verification(clean).counterexamples
        assert len(solver._PLANS) < solver._PLAN_CAPACITY
        # ... and must not hide the mutant ...
        assert run_mutation_check(mutation, seed=0, cases=10)
        # ... nor plans built with the mutant outlive it.
        assert not run_verification(clean).counterexamples
