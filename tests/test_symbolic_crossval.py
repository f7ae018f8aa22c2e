"""Cross-validation of the symbolic (parametric) dependence analysis.

The contract under test: :func:`repro.symbolic.analyze_symbolic` solves a
program once with ``u``/``p`` free, and ``instantiate(binding)`` must
reproduce the concrete analyzer bit for bit at *every* concrete size --
including the adversarial ones (1, 2, primes, powers of two).  The
sampling harness (``oracle_symbolic``) automates exactly that comparison
over randomized cases; the mutation tests prove the harness would notice
if the symbolic solver were wrong.
"""

import random
import time

import pytest

from repro.depanalysis.analyzer import analyze
from repro.depanalysis.engine import AnalysisConfig
from repro.ir.expand import expand_bit_level
from repro.structures.params import S
from repro.symbolic import (
    SymbolicUnsupported,
    analyze_symbolic,
    clear_memo,
    crosscheck_theorem31,
    solve_symbolic_system,
)
from repro.util.linalg import solve_integer_system
from repro.verify import (
    EDGE_SIZES,
    MUTATIONS,
    VerifyConfig,
    gen_symbolic_case,
    run_mutation_check,
    run_verification,
)

SYMBOLIC_MUTATIONS = sorted(
    name for name, mutation in MUTATIONS.items()
    if mutation.oracle == "symbolic"
)

#: the concrete reference: the scalar route never consults the symbolic
#: solver, so it stays independent of the closed form under test
NO_CACHE = AnalysisConfig(backend="scalar", cache=False)


def symbolic_matmul_program(expansion, dim=3):
    """The paper's bit-level matmul with every size kept free."""
    h = {
        1: ([0, 1], [1, 0], [1, 1]),
        2: ([0, 1], [1, 0], [1, 1]),
        3: ([0, 1, 0], [1, 0, 0], [0, 0, 1]),
    }[dim]
    h1, h2, h3 = ([0, 1], [1, 0], [1, 1]) if dim == 2 else h
    return expand_bit_level(
        h1, h2, h3, (1,) * dim, tuple(S("u") for _ in range(dim)),
        S("p"), expansion,
    )


def assert_bindings_match(symbolic, program, bindings, method="enumerate"):
    """Symbolic instantiation == concrete analysis, bit for bit."""
    for binding in bindings:
        exact = analyze(program, binding, method=method, config=NO_CACHE)
        got = symbolic.instantiate(binding)
        assert [i.key() for i in got.instances] == [
            i.key() for i in exact.instances
        ], f"instance divergence at {binding}"
        summary = symbolic.summary(binding)
        assert summary["instances"] == len(exact.instances), binding
        assert summary["distinct_vectors"] == sorted(
            {i.vector for i in exact.instances}
        ), binding


# ---------------------------------------------------------------------------
# The parametric solver against the concrete one
# ---------------------------------------------------------------------------

class TestSolveSymbolic:
    def _random_system(self, rng):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rhs = [
            S("u") * rng.randint(-2, 2) + rng.randint(-4, 4) for _ in range(m)
        ]
        return a, rhs

    def test_matches_concrete_solver_at_many_bindings(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(150):
            a, rhs = self._random_system(rng)
            try:
                sol = solve_symbolic_system(a, rhs)
            except SymbolicUnsupported:
                continue
            for u in range(0, 6):
                binding = {"u": u}
                b = [e.evaluate(binding) for e in rhs]
                concrete = solve_integer_system(a, b)
                if sol is None or not sol.feasible_at(binding):
                    assert concrete is None, (a, b)
                    continue
                assert concrete is not None, (a, b)
                particular, basis = sol.instantiate(binding)
                # The particular solution solves the system ...
                for row, bi in zip(a, b):
                    assert sum(c * z for c, z in zip(row, particular)) == bi
                # ... and the homogeneous bases agree exactly (both come
                # from the same Smith normal form).
                assert basis == tuple(tuple(r) for r in concrete[1])
                checked += 1
        assert checked > 100  # the loop really exercised the comparison

    def test_never_divisible_is_no_solution(self):
        # 2x = 2u + 1: odd rhs, even lhs -- no binding works.
        assert solve_symbolic_system([[2]], [S("u") * 2 + 1]) is None

    def test_param_dependent_congruence_raises(self):
        # 2x = u: solvable only for even u -- no linear closed form.
        with pytest.raises(SymbolicUnsupported):
            solve_symbolic_system([[2]], [S("u")])

    def test_zero_row_becomes_feasibility_predicate(self):
        # 0x = u - 3: solvable exactly when u = 3.
        sol = solve_symbolic_system([[0]], [S("u") - 3])
        assert sol is not None
        assert sol.feasible_at({"u": 3})
        assert not sol.feasible_at({"u": 4})


# ---------------------------------------------------------------------------
# Bit-for-bit cross-validation on the paper's programs
# ---------------------------------------------------------------------------

class TestCrossvalMatmul:
    #: adversarial sizes: 1, 2, primes, powers of two
    BINDINGS_3D = [
        {"u": 1, "p": 1}, {"u": 1, "p": 2}, {"u": 2, "p": 1},
        {"u": 2, "p": 2}, {"u": 3, "p": 2}, {"u": 2, "p": 3},
    ]

    @pytest.mark.parametrize("expansion", ["I", "II"])
    def test_full_matmul_matches_exact_analyzer(self, expansion):
        program = symbolic_matmul_program(expansion)
        symbolic = analyze_symbolic(program, cache=False)
        assert symbolic.closed_form
        assert_bindings_match(symbolic, program, self.BINDINGS_3D)

    @pytest.mark.parametrize("expansion", ["I", "II"])
    def test_2d_shapes_at_edge_sizes(self, expansion):
        program = symbolic_matmul_program(expansion, dim=2)
        symbolic = analyze_symbolic(program, cache=False)
        bindings = [
            {"u": u, "p": p}
            for u in (1, 2, 3, 4, 5)
            for p in (1, 2, 3)
        ]
        assert_bindings_match(symbolic, program, bindings)

    def test_instantiation_is_size_independent(self):
        program = symbolic_matmul_program("II")
        symbolic = analyze_symbolic(program, cache=False)
        t0 = time.perf_counter()
        small = symbolic.summary({"u": 4, "p": 4})
        huge = symbolic.summary({"u": 1024, "p": 1024})
        elapsed = time.perf_counter() - t0
        # Closed-form counting: answering at u=p=1024 never enumerates the
        # ~4.5e15-instance space (a generous bound; actual cost is ~ms and
        # identical at both sizes).
        assert elapsed < 5.0
        assert small["closed_form"] and huge["closed_form"]
        assert huge["instances"] > 4_000_000_000_000_000
        assert huge["distinct_vectors"] == small["distinct_vectors"]

    @pytest.mark.parametrize("expansion", ["I", "II"])
    def test_theorem31_crosscheck(self, expansion):
        report = crosscheck_theorem31(expansion=expansion)
        assert report.ok, report.summary()
        assert report.closed_form
        assert report.bindings_checked >= 5
        assert report.summary().startswith("MATCH")


# ---------------------------------------------------------------------------
# The sampling harness (the >= 200 zero-diff acceptance gate)
# ---------------------------------------------------------------------------

class TestSamplingHarness:
    def test_200_sampled_sizes_zero_diffs(self):
        report = run_verification(
            VerifyConfig(seed=0, cases=200, oracles=("symbolic",))
        )
        (outcome,) = report.outcomes
        assert outcome.cases_run == 200
        assert outcome.passed == 200
        assert report.ok, report.summary()

    def test_generator_is_seed_deterministic(self):
        from repro.verify import SizeEnvelope

        env = SizeEnvelope()
        assert gen_symbolic_case(
            random.Random(7), env
        ) == gen_symbolic_case(random.Random(7), env)

    def test_generator_covers_the_adversarial_corners(self):
        rng = random.Random(0)
        cases = [gen_symbolic_case(rng) for _ in range(200)]
        kinds = {c.kind for c in cases}
        assert kinds == {"matmul", "stride"}
        us = {c.u for c in cases}
        # 1, 2, primes, powers of two all get drawn.
        assert {1, 2, 3, 4} <= us
        assert us <= set(EDGE_SIZES)
        assert 1 in {c.p for c in cases if c.kind == "matmul"}
        # Both congruence outcomes appear: offsets divisible by the
        # stride (a real sparse dependence) and indivisible ones (no
        # dependence at any size).
        strided = [c for c in cases if c.kind == "stride"]
        assert any(c.offset % c.stride == 0 for c in strided)
        assert any(c.offset % c.stride != 0 for c in strided)

    def test_stride_case_congruences_are_load_bearing(self):
        from repro.verify.generator import SymbolicCase

        # s | o: dependence with distance o/s at every size.
        yes = SymbolicCase(kind="stride", u=6, stride=2, offset=4)
        program = yes.build_program()
        symbolic = analyze_symbolic(program, cache=False)
        result = symbolic.instantiate({"u": 6})
        assert {i.vector for i in result.instances} == {(2,)}
        assert_bindings_match(symbolic, program, [{"u": u} for u in (1, 5, 8)])
        # s does not divide o: no dependence at any size.
        no = SymbolicCase(kind="stride", u=6, stride=2, offset=3)
        program = no.build_program()
        symbolic = analyze_symbolic(program, cache=False)
        assert symbolic.families == ()
        assert_bindings_match(symbolic, program, [{"u": u} for u in (1, 5, 8)])


# ---------------------------------------------------------------------------
# Mutation robustness: the harness catches seeded solver bugs
# ---------------------------------------------------------------------------

class TestMutationRobustness:
    def test_symbolic_mutations(self):
        assert SYMBOLIC_MUTATIONS == ["dropped-congruence", "shifted-bound"]

    @pytest.mark.parametrize("mutation", SYMBOLIC_MUTATIONS)
    def test_seeded_bug_is_caught_and_shrunk(self, mutation):
        counterexample = run_mutation_check(mutation, seed=0, cases=40)
        assert counterexample is not None, (
            f"the seeded {mutation} bug must produce a counterexample"
        )
        assert counterexample.oracle == "symbolic"
        assert "divergence" in counterexample.detail
        # The shrinker drove the witness to a minimal size.
        assert counterexample.case["u"] <= counterexample.original["u"]
        assert counterexample.case["u"] <= 2

    def test_dropped_congruence_needs_the_stride_cases(self):
        # The matmul programs have identity subscripts (all invariant
        # factors 1), so the dropped-congruence mutant is only visible on
        # a strided system: the witness must be a stride case.
        counterexample = run_mutation_check(
            "dropped-congruence", seed=0, cases=40
        )
        assert counterexample.case["kind"] == "stride"
        assert (
            counterexample.case["offset"] % counterexample.case["stride"] != 0
        )

    def test_mutant_state_does_not_leak(self):
        import repro.symbolic.families as families_mod
        import repro.symbolic.solve as solve_mod

        reals = (solve_mod._congruence_quotient, families_mod.shifted_bounds)
        for mutation in SYMBOLIC_MUTATIONS:
            run_mutation_check(mutation, seed=0, cases=40)
        # The originals are restored ...
        assert (
            solve_mod._congruence_quotient,
            families_mod.shifted_bounds,
        ) == reals
        # ... and no mutant result survives in the memo: a clean run at a
        # fresh seed passes every case.
        report = run_verification(
            VerifyConfig(seed=99, cases=20, oracles=("symbolic",))
        )
        assert report.ok, report.summary()

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            run_mutation_check("nonesuch")

    def test_cli_symbolic_mutation_check(self, capsys):
        from repro.__main__ import main

        rc = main([
            "verify", "--mutation", "dropped-congruence",
            "--cases", "40",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mutation check ok" in out
        assert "dropped-congruence" in out


# ---------------------------------------------------------------------------
# Serde + caching of symbolic artifacts
# ---------------------------------------------------------------------------

class TestSerdeAndCache:
    @pytest.mark.parametrize("expansion", ["I", "II"])
    def test_payload_round_trip_is_exact(self, expansion):
        import json

        from repro.symbolic.serde import (
            symbolic_result_from_payload,
            symbolic_result_to_payload,
        )

        program = symbolic_matmul_program(expansion)
        result = analyze_symbolic(program, cache=False)
        wire = json.loads(json.dumps(symbolic_result_to_payload(result)))
        again = symbolic_result_from_payload(wire)
        assert again == result
        binding = {"u": 3, "p": 2}
        assert [i.key() for i in again.instantiate(binding).instances] == [
            i.key() for i in result.instantiate(binding).instances
        ]

    def test_unknown_payload_version_rejected(self):
        from repro.symbolic.serde import symbolic_result_from_payload

        with pytest.raises(ValueError, match="version"):
            symbolic_result_from_payload({"version": 999})

    def test_store_round_trip_and_memo(self, tmp_path):
        from repro import obs

        program = symbolic_matmul_program("II")
        clear_memo()
        with obs.collecting() as reg:
            first = analyze_symbolic(
                program, cache=True, cache_dir=str(tmp_path)
            )
            memo_hit = analyze_symbolic(
                program, cache=True, cache_dir=str(tmp_path)
            )
            clear_memo()  # force the on-disk path
            disk_hit = analyze_symbolic(
                program, cache=True, cache_dir=str(tmp_path)
            )
            metrics = obs.metrics_dict(reg)
        assert memo_hit is first
        assert disk_hit == first
        assert metrics["counters"]["symbolic.memo_hits"] == 1
        assert metrics["counters"]["symbolic.cache_hits"] == 1
        binding = {"u": 4, "p": 3}
        assert disk_hit.summary(binding) == first.summary(binding)
        clear_memo()

    def test_symbolic_key_separates_programs(self):
        from repro.cache import symbolic_key

        a = symbolic_matmul_program("I")
        b = symbolic_matmul_program("II")
        assert symbolic_key(a) == symbolic_key(symbolic_matmul_program("I"))
        assert symbolic_key(a) != symbolic_key(b)
