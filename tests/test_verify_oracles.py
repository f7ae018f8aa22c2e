"""Tier-1 checks for the differential verification subsystem.

Each oracle runs at a small fixed budget with a fixed seed -- fully
deterministic -- plus the subsystem's own soundness checks: the seeded
mutation must be caught, shrinking must actually minimize, reports must
round-trip through JSON, and the CLI must wire it all together.
"""

import json
import random
from dataclasses import dataclass, replace

import pytest

from repro.verify import (
    ORACLES,
    VerifyConfig,
    run_mutation_check,
    run_verification,
    shrink,
)
from repro.verify.generator import (
    SizeEnvelope,
    gen_mapping_case,
    gen_simulator_case,
    gen_theorem31_case,
    lex_positive,
)

SMALL = VerifyConfig(seed=0, cases=8)


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_passes_at_small_budget(oracle):
    report = run_verification(replace(SMALL, oracles=(oracle,)))
    assert report.ok, report.summary()
    (outcome,) = report.outcomes
    assert outcome.cases_run == SMALL.cases
    assert outcome.passed == SMALL.cases


def test_run_is_deterministic_for_a_seed():
    def stable(report):
        d = report.to_dict()
        for outcome in d["outcomes"]:
            outcome.pop("elapsed_s")
        return d

    assert stable(run_verification(SMALL)) == stable(run_verification(SMALL))


def test_unknown_oracle_rejected():
    with pytest.raises(ValueError, match="unknown oracle"):
        run_verification(replace(SMALL, oracles=("nonesuch",)))


def test_budget_cuts_the_loop_short():
    report = run_verification(
        VerifyConfig(seed=0, cases=10_000, budget_s=0.0, oracles=("mapping",))
    )
    (outcome,) = report.outcomes
    assert outcome.budget_exhausted
    assert outcome.cases_run < 10_000


def test_generators_are_seed_deterministic():
    for gen in (gen_theorem31_case, gen_mapping_case, gen_simulator_case):
        env = SizeEnvelope()
        assert gen(random.Random(7), env) == gen(random.Random(7), env)


def test_generated_word_vectors_are_lex_positive():
    rng = random.Random(3)
    for _ in range(50):
        case = gen_theorem31_case(rng)
        assert lex_positive(case.h1) and lex_positive(case.h2) and lex_positive(case.h3)
        assert all(lo <= hi for lo, hi in zip(case.lowers, case.uppers))


def test_mutation_check_catches_seeded_bug():
    counterexample = run_mutation_check("cprime-everywhere", seed=0, cases=30)
    assert counterexample is not None, (
        "the seeded c' validity bug must produce a counterexample"
    )
    assert counterexample.oracle == "theorem31"
    # The mutation (c' column valid everywhere) is extensionally visible
    # only once the c' source lands inside the index set, i.e. at p >= 3;
    # a sound shrinker therefore must NOT reduce p below 3.
    assert counterexample.case["p"] == 3
    assert "MISMATCH" in counterexample.detail


def test_mapping_oracle_catches_a_sublattice_nullspace(monkeypatch):
    # A reduction that returns a sublattice (one basis vector doubled)
    # makes find_conflicts miss conflicts.  The search oracle cannot see
    # it, because the catalog and the solver both certify with
    # check_feasibility; the mapping oracle rehashes every image.
    from repro.mapping import transform

    real = transform.lagrange_reduce

    def doubled(basis):
        out = real(basis)
        if out:
            out[0] = [2 * x for x in out[0]]
        return out

    monkeypatch.setattr(transform, "lagrange_reduce", doubled)
    report = run_verification(VerifyConfig(
        seed=0, cases=200, oracles=("mapping",), max_counterexamples=1,
    ))
    assert not report.ok
    (counterexample,) = report.counterexamples
    assert "find_conflicts says clean" in counterexample.detail


def test_mutation_counterexample_is_shrunken():
    counterexample = run_mutation_check("cprime-everywhere", seed=0, cases=30)
    assert counterexample is not None
    assert counterexample.shrink_steps > 0
    # Shrinking must have reduced the index-set volume (or kept it minimal).
    def volume(case):
        out = 1
        for lo, hi in zip(case["lowers"], case["uppers"]):
            out *= hi - lo + 1
        return out

    assert volume(counterexample.case) <= volume(counterexample.original)


def test_report_json_roundtrip(tmp_path):
    report = run_verification(SMALL)
    path = tmp_path / "verify.json"
    report.write(str(path))
    loaded = json.loads(path.read_text())
    assert loaded == report.to_dict()
    assert loaded["ok"] is True
    assert {o["oracle"] for o in loaded["outcomes"]} == set(SMALL.oracles)


def test_shrink_minimizes_generic_case():
    @dataclass(frozen=True)
    class Pair:
        a: int
        b: int

        def shrink_candidates(self):
            if self.a > 0:
                yield Pair(self.a - 1, self.b)
            if self.b > 0:
                yield Pair(self.a, self.b - 1)

    # Failure condition: a >= 3. Minimal failing case is (3, 0).
    small, steps = shrink(Pair(9, 5), lambda c: c.a >= 3)
    assert small == Pair(3, 0)
    assert steps == (9 - 3) + 5


def test_shrink_treats_raising_candidates_as_passing():
    @dataclass(frozen=True)
    class Fragile:
        n: int

        def shrink_candidates(self):
            if self.n > 0:
                yield Fragile(self.n - 1)

    def fails(case):
        if case.n == 2:
            raise RuntimeError("checker blew up")
        return case.n >= 1

    small, _ = shrink(Fragile(4), fails)
    # n=2 raises, so the greedy path 4 -> 3 stops there: 3's only candidate
    # (2) raises and is treated as not failing.
    assert small == Fragile(3)


def test_verify_cli_smoke(capsys):
    from repro.__main__ import main

    rc = main(["verify", "--seed", "0", "--cases", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all oracles agree" in out


def test_verify_cli_report_and_oracle_selection(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "r.json"
    rc = main([
        "verify", "--seed", "1", "--cases", "4",
        "--oracle", "simulator", "--report", str(path),
    ])
    assert rc == 0
    data = json.loads(path.read_text())
    assert [o["oracle"] for o in data["outcomes"]] == ["simulator"]
    assert "report written" in capsys.readouterr().out


def test_verify_cli_mutation_check(capsys):
    from repro.__main__ import main

    rc = main(["verify", "--mutation", "cprime-everywhere", "--cases", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mutation check ok: seeded cprime-everywhere bug caught" in out


def test_verify_cli_offers_every_mutation():
    from repro.__main__ import build_parser
    from repro.verify import MUTATIONS

    parser = build_parser()
    for name in MUTATIONS:
        assert parser.parse_args(["verify", "--mutation", name]).mutation \
            == name


def test_mutation_table_restores_every_seam_and_counts_once():
    """Each of the five seeded bugs runs through the one runner: its
    seam is restored afterwards, and each catch counts into the one
    ``verify.mutation.caught`` counter."""
    import importlib

    from repro import obs
    from repro.verify import MUTATIONS

    assert sorted(MUTATIONS) == [
        "cprime-everywhere", "dropped-conflict-screen", "dropped-congruence",
        "shifted-bound", "tight-deadline",
    ]
    reals = {
        name: getattr(importlib.import_module(m.seam[0]), m.seam[1])
        for name, m in MUTATIONS.items()
    }
    with obs.collecting() as reg:
        for name in MUTATIONS:
            assert run_mutation_check(name, seed=0, cases=30) is not None
    assert reg.metrics()["counters"]["verify.mutation.caught"] == 5
    for name, m in MUTATIONS.items():
        module, attr = m.seam
        assert getattr(importlib.import_module(module), attr) is reals[name]
    with pytest.raises(ValueError, match="unknown mutation"):
        run_mutation_check("nonesuch")


def test_verify_emits_obs_counters():
    from repro import obs

    with obs.collecting() as reg:
        run_verification(replace(SMALL, oracles=("theorem31",)))
        metrics = obs.metrics_dict(reg)
    assert metrics["counters"]["verify.theorem31.cases"] == SMALL.cases
    assert "verify.theorem31" in metrics["spans"]


def _model_cases(count, seed=0):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        case = gen_simulator_case(rng)
        if case.mode == "model":
            cases.append(case)
    return cases


@pytest.mark.parametrize("backend", ["pointwise", "compiled"])
def test_simulator_model_mode_matches_reference(backend):
    """The model mode draws convolutions on searched designs and matmul's
    h̄ over rectangular boxes, some with initial words; each run equals
    the word-level reference on both backends."""
    from repro.verify import oracle_simulator

    cases = _model_cases(24)
    assert {c.design for c in cases} == {"search", "fig4", "fig5"}
    assert any(c.z_init for c in cases)
    for case in cases:
        assert oracle_simulator.check(case, backend=backend) is None, case


def test_simulator_model_mode_catches_and_shrinks_a_dropped_z_init(
    monkeypatch,
):
    """A seeded bug -- the machine drops its initial words -- is caught,
    and shrinking keeps the counterexample a model case."""
    from repro.machine.model import WordBox
    from repro.verify import oracle_simulator

    monkeypatch.setattr(WordBox, "initial", lambda self, z_init, mask=None: None)
    case = next(c for c in _model_cases(24) if any(v for _, v in c.z_init))
    assert oracle_simulator.check(case) is not None
    small, steps = shrink(case, lambda c: oracle_simulator.check(c) is not None)
    assert small.mode == "model" and steps > 0
    assert sum(v for _, v in small.z_init) == 1
