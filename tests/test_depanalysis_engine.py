"""Tests for the vectorized dependence-analysis engine.

The batched backend's contract is bit-identical equivalence with the
scalar reference: the same ordered instance list and the same statistics
counters, for both the exact (Diophantine) and enumerate (hash-join)
methods, with and without screening.  These tests pin that contract plus
the backend-resolution policy and the numpy-level helpers.
"""

import pytest

from repro.depanalysis import analyze
from repro.depanalysis.engine import (
    AnalysisConfig,
    BACKENDS,
    analyze_enumerate_batched,
    analyze_exact_batched,
    default_backend,
    resolve_backend,
)
from repro.ir import builders
from repro.ir.expand import expand_bit_level
from repro.ir.expr import var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.structures.indexset import IndexSet


def _scalar(backend):
    return AnalysisConfig(backend=backend, cache=False)


def _assert_identical(a, b):
    assert [i.key() for i in a.instances] == [i.key() for i in b.instances]
    assert a.stats == b.stats


PROGRAMS = [
    (builders.matmul_pipelined(3), {"u": 3}),
    (builders.addshift_pipelined(4), {"p": 4}),
    (builders.model_1d(2, 1, 3, upper=7), {}),
    (builders.word_model([1, 0], [1, -1], [0, 1], [1, 1], [4, 3]), {}),
    (expand_bit_level([1], [1], [1], [1], [3], 2, "II"), {}),
    (expand_bit_level([0, 1], [1, 0], [1, 1], [1, 1], [3, 2], 3, "I"), {}),
]


class TestBackendEquivalence:
    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_exact_screens_on(self, prog, binding):
        _assert_identical(
            analyze(prog, binding, "exact", config=_scalar("scalar")),
            analyze(prog, binding, "exact", config=_scalar("batched")),
        )

    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_exact_screens_off(self, prog, binding):
        _assert_identical(
            analyze(prog, binding, "exact", use_screens=False,
                    config=_scalar("scalar")),
            analyze(prog, binding, "exact", use_screens=False,
                    config=_scalar("batched")),
        )

    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_enumerate(self, prog, binding):
        _assert_identical(
            analyze(prog, binding, "enumerate", config=_scalar("scalar")),
            analyze(prog, binding, "enumerate", config=_scalar("batched")),
        )

    def test_guarded_program(self):
        # Bit-level expansion guards statements with Eq/Or conditions; the
        # batched mask path must replicate guard filtering exactly.
        prog = expand_bit_level([0, 1, 0], [1, 0, 0], [0, 0, 1],
                                [1, 1, 1], [2, 2, 2], 2, "II")
        for method in ("exact", "enumerate"):
            _assert_identical(
                analyze(prog, {"p": 2}, method, config=_scalar("scalar")),
                analyze(prog, {"p": 2}, method, config=_scalar("batched")),
            )

    def test_reversed_dependences(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [4], ("j",)),
            [Statement("S", ArrayAccess("x", [j]),
                       [ArrayAccess("x", [j + 1])])],
        )
        res = analyze(prog, {}, "enumerate", config=_scalar("batched"))
        assert res.instances and all(
            i.kind == "reversed" for i in res.instances
        )
        _assert_identical(res, analyze(prog, {}, "enumerate",
                                       config=_scalar("scalar")))

    def test_non_single_assignment_detected_batched(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [3], ("j",)),
            [Statement("S", ArrayAccess("z", [j - j]))],
        )
        with pytest.raises(ValueError, match="single-assignment"):
            analyze_enumerate_batched(prog, {})

    def test_rank_mismatch_raises_like_scalar(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [3], ("j",)),
            [Statement("S", ArrayAccess("x", [j]),
                       [ArrayAccess("x", [j, j])])],
        )
        with pytest.raises(ValueError, match="rank mismatch"):
            analyze(prog, {}, "exact", config=_scalar("batched"))
        with pytest.raises(ValueError, match="rank mismatch"):
            analyze(prog, {}, "exact", config=_scalar("scalar"))


class TestBackendResolution:
    def test_backends_tuple(self):
        assert BACKENDS == ("scalar", "batched")

    def test_explicit_names(self):
        assert resolve_backend("scalar") == "scalar"
        assert resolve_backend("batched") == "batched"

    def test_auto_is_default(self):
        assert resolve_backend("auto") == default_backend()
        assert default_backend() == "batched"

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_BACKEND", "scalar")
        assert resolve_backend(None) == "scalar"
        monkeypatch.delenv("REPRO_ANALYSIS_BACKEND")
        assert resolve_backend(None) == default_backend()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            analyze(builders.model_1d(upper=3), {}, "magic",
                    config=_scalar("batched"))


class TestNumpyHelpers:
    def test_box_lattice_matches_product_order(self):
        import itertools

        from repro.depanalysis.engine import box_lattice

        bounds = [(1, 3), (-1, 1), (2, 2)]
        pts = box_lattice(bounds)
        expected = list(itertools.product(*[range(lo, hi + 1)
                                            for lo, hi in bounds]))
        assert [tuple(int(x) for x in row) for row in pts] == expected

    def test_condition_mask_matches_holds(self):
        from repro.depanalysis.engine import box_lattice, condition_mask
        from repro.structures.conditions import And, Eq, Ne, Not, Or

        cond = Or(And(Eq(0, 1), Ne(1, 2)), Not(Eq(2, 3)))
        bounds = [(1, 3)] * 3
        pts = box_lattice(bounds)
        mask = condition_mask(cond, pts, {})
        for row, ok in zip(pts, mask):
            point = tuple(int(x) for x in row)
            assert bool(ok) == cond.holds(point, {})

    def test_direct_batched_calls(self):
        prog = builders.matmul_pipelined(3)
        exact = analyze_exact_batched(prog, {"u": 3})
        enum = analyze_enumerate_batched(prog, {"u": 3})
        assert set(exact.instances) == set(enum.instances)


class TestObsCounters:
    def test_batched_counters_emitted(self):
        from repro import obs

        prog = builders.matmul_pipelined(3)
        with obs.collecting() as reg:
            analyze(prog, {"u": 3}, "exact", config=_scalar("batched"))
        counters = dict(reg.counters)
        assert counters.get("depanalysis.pairs_batch_screened", 0) > 0
        assert counters.get("depanalysis.pairs_tested", 0) > 0

    def test_scalar_counters_match_stats(self):
        from repro import obs

        prog = builders.matmul_pipelined(2)
        with obs.collecting() as reg:
            res = analyze(prog, {"u": 2}, "exact", config=_scalar("scalar"))
        counters = dict(reg.counters)
        for key, value in res.stats.items():
            assert counters.get(f"depanalysis.{key}") == value
