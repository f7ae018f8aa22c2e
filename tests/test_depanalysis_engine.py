"""Tests for the dependence-analysis routes.

Exact analysis has two routes: the scalar Diophantine analyzer (the
reference) and the symbolic closed form instantiated at the binding (the
default).  Their contract is the same *ordered* instance list; of the
``stats`` only ``pairs_tested`` and ``instances`` are shared, the rest
are the counters of the route that ran.  These tests pin that contract
over the paper's program suite, against the hash-join oracle too, plus
the fallback to the scalar analyzer, backend resolution and the numpy
helpers ``expansion.verify`` uses.
"""

import pytest

from repro.depanalysis import PointSet, analyze
from repro.depanalysis.engine import (
    AnalysisConfig,
    BACKENDS,
    resolve_backend,
)
from repro.ir import builders
from repro.ir.expand import expand_bit_level
from repro.ir.expr import var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.structures.indexset import IndexSet

#: the stats every route reports identically
SHARED_STATS = ("pairs_tested", "instances")


def _config(backend):
    return AnalysisConfig(backend=backend, cache=False)


def _assert_same_answer(reference, got):
    assert [i.key() for i in got.instances] == [
        i.key() for i in reference.instances
    ]
    for key in SHARED_STATS:
        if key in reference.stats:
            assert got.stats[key] == reference.stats[key], key


PROGRAMS = [
    (builders.matmul_pipelined(3), {"u": 3}),
    (builders.addshift_pipelined(4), {"p": 4}),
    (builders.model_1d(2, 1, 3, upper=7), {}),
    (builders.word_model([1, 0], [1, -1], [0, 1], [1, 1], [4, 3]), {}),
    (expand_bit_level([1], [1], [1], [1], [3], 2, "II"), {}),
    (expand_bit_level([0, 1], [1, 0], [1, 1], [1, 1], [3, 2], 3, "I"), {}),
]


def _rank_mismatched():
    j = var("j")
    return LoopNest(
        ("j",),
        IndexSet([1], [3], ("j",)),
        [Statement("S", ArrayAccess("x", [j]),
                   [ArrayAccess("x", [j, j])])],
    )


def _point_set_guarded():
    """``x(j) = f(x(j - 1))`` on the points of an extensional guard."""
    j = var("j")
    return LoopNest(
        ("j",),
        IndexSet([1], [6], ("j",)),
        [Statement("S", ArrayAccess("x", [j]), [ArrayAccess("x", [j - 1])],
                   guard=PointSet([(2,), (3,), (5,), (6,)]))],
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_exact_screens_on(self, prog, binding):
        _assert_same_answer(
            analyze(prog, binding, "exact", config=_config("scalar")),
            analyze(prog, binding, "exact", config=_config("symbolic")),
        )

    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_exact_screens_off(self, prog, binding):
        _assert_same_answer(
            analyze(prog, binding, "exact", use_screens=False,
                    config=_config("scalar")),
            analyze(prog, binding, "exact", use_screens=False,
                    config=_config("symbolic")),
        )

    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_enumerate(self, prog, binding):
        # The hash-join oracle is an independent reference for the default
        # exact route on these single-assignment programs.
        _assert_same_answer(
            analyze(prog, binding, "enumerate", config=_config("scalar")),
            analyze(prog, binding, "exact", config=_config(None)),
        )

    def test_guarded_program(self):
        # Bit-level expansion guards statements with Eq/Or conditions; the
        # symbolic region algebra must replicate guard filtering exactly.
        prog = expand_bit_level([0, 1, 0], [1, 0, 0], [0, 0, 1],
                                [1, 1, 1], [2, 2, 2], 2, "II")
        got = analyze(prog, {"p": 2}, "exact", config=_config("symbolic"))
        for method in ("exact", "enumerate"):
            _assert_same_answer(
                analyze(prog, {"p": 2}, method, config=_config("scalar")),
                got,
            )

    def test_reversed_dependences(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [4], ("j",)),
            [Statement("S", ArrayAccess("x", [j]),
                       [ArrayAccess("x", [j + 1])])],
        )
        res = analyze(prog, {}, "exact", config=_config("symbolic"))
        assert res.instances and all(
            i.kind == "reversed" for i in res.instances
        )
        _assert_same_answer(
            analyze(prog, {}, "enumerate", config=_config("scalar")), res
        )

    def test_rank_mismatch_raises_like_scalar(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            prog = _rank_mismatched()
            analyze(prog, {}, "exact", config=_config("scalar"))

    @pytest.mark.parametrize("route", ["analyze_symbolic", "screens_off"])
    def test_rank_mismatch_rejected_on_every_route(self, route):
        # Subscripts are equated position by position, so no route may
        # analyze an array accessed at two ranks.
        from repro.symbolic import analyze_symbolic

        with pytest.raises(ValueError, match="rank mismatch on array x"):
            prog = _rank_mismatched()
            if route == "analyze_symbolic":
                analyze_symbolic(prog, cache=False)
            else:
                analyze(prog, {}, "exact", use_screens=False,
                        config=_config("scalar"))


def _chain(lower, upper):
    """``x(j) = f(x(j - 1))`` over ``lower <= j <= upper``."""
    j = var("j")
    return LoopNest(
        ("j",),
        IndexSet([lower], [upper], ("j",)),
        [Statement("S", ArrayAccess("x", [j]), [ArrayAccess("x", [j - 1])])],
    )


ROUTES = [("exact", "scalar"), ("exact", "symbolic"), ("enumerate", "scalar")]


class TestInt64Range:
    """A result's row table holds ``int64`` sinks: one outside that range
    is a ``ValueError`` naming it on every route, never a wrapped value."""

    BIG = 2**63

    @pytest.mark.parametrize("method,backend", ROUTES)
    def test_sink_outside_int64_is_named(self, method, backend):
        prog = _chain(self.BIG - 2, self.BIG + 1)
        with pytest.raises(
            ValueError,
            match=rf"coordinate ({self.BIG}|{self.BIG + 1}) is outside the "
            r"int64 range",
        ):
            analyze(prog, {}, method, config=_config(backend))

    @pytest.mark.parametrize("method,backend", ROUTES)
    def test_sinks_at_the_int64_edge_are_exact(self, method, backend):
        from repro.cache import (
            analysis_result_from_payload,
            analysis_result_to_payload,
        )

        # Only the sink is stored: a source one below the range is fine.
        prog = _chain(-self.BIG - 1, -self.BIG + 2)
        result = analyze(prog, {}, method, config=_config(backend))
        sinks = [(-self.BIG,), (-self.BIG + 1,), (-self.BIG + 2,)]
        assert [i.sink for i in result.instances] == sinks
        back = analysis_result_from_payload(
            analysis_result_to_payload(result)
        )
        assert tuple(back.instances) == tuple(result.instances)


class TestSymbolicRoute:
    def test_unsupported_guard_falls_back_to_scalar(self):
        from repro import obs

        prog = _point_set_guarded()
        want = analyze(prog, {}, "exact", config=_config("scalar"))
        with obs.collecting() as reg:
            got = analyze(prog, {}, "exact", config=_config("symbolic"))
        assert want.instances
        assert [i.key() for i in got.instances] == [
            i.key() for i in want.instances
        ]
        assert got.stats == want.stats
        assert reg.counters["depanalysis.symbolic_fallbacks"] == 1

    def test_variable_distance_family_rows_and_counts(self):
        # x(2j) = f(x(j)): the distance j - j/2 varies, so the pair is a
        # general family whose enumerated instances enter the row table,
        # and summary counts its groups from the table's columns.
        from repro.symbolic import analyze_symbolic

        j = var("j")
        prog = LoopNest(
            ("j",), IndexSet([1], [9], ("j",)),
            [Statement("S", ArrayAccess("x", [2 * j]),
                       [ArrayAccess("x", [j])])],
        )
        symbolic = analyze_symbolic(prog, cache=False)
        assert not symbolic.closed_form
        want = analyze(prog, {}, "exact", config=_config("scalar"))
        got = analyze(prog, {}, "exact", config=_config("symbolic"))
        assert len(want.instances) == 4
        _assert_same_answer(want, got)
        summary = symbolic.summary({})
        assert summary["instances"] == len(want.instances)
        assert summary["distinct_vectors"] == want.distinct_vectors()
        assert summary["by_kind"] == {"flow": 4}

    def test_route_leaves_the_symbolic_memo_alone(self):
        # The route solves every concrete program from scratch: the
        # never-evicting analyze_symbolic memo must not grow with it.
        from repro.symbolic import analyze as symbolic_analyze

        before = len(symbolic_analyze._MEMO)
        for u in range(2, 7):
            for p in range(2, 6):
                for expansion in ("I", "II"):
                    prog = expand_bit_level(
                        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1],
                        [u, u, u], p, expansion,
                    )
                    assert analyze(prog, {"p": p},
                                   config=_config("symbolic"))
        assert len(symbolic_analyze._MEMO) <= before


class TestBackendResolution:
    def test_backends_tuple(self):
        assert BACKENDS == ("scalar", "symbolic")

    def test_explicit_names(self):
        assert resolve_backend("scalar") == "scalar"
        assert resolve_backend("symbolic") == "symbolic"

    def test_symbolic_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ANALYSIS_BACKEND", raising=False)
        assert resolve_backend(None) == "symbolic"
        assert resolve_backend() == "symbolic"

    def test_auto_is_refused(self, monkeypatch, capsys):
        from repro.__main__ import main

        choices = r"choose from \('scalar', 'symbolic'\)"
        with pytest.raises(ValueError, match=choices):
            resolve_backend("auto")
        with pytest.raises(ValueError, match="'auto'"):
            AnalysisConfig(backend="auto")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--u", "2", "--p", "2", "--backend", "auto"])
        assert exc.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_ANALYSIS_BACKEND", "auto")
        with pytest.raises(ValueError, match="'auto'"):
            resolve_backend(None)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    def test_retired_batched_backend_rejected(self, monkeypatch):
        from repro.__main__ import main
        from repro.serve.jobs import JobSpec

        with pytest.raises(ValueError, match="'batched'"):
            AnalysisConfig(backend="batched")
        with pytest.raises(ValueError, match="'batched'"):
            JobSpec(kind="analyze", analysis_backend="batched")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--u", "2", "--p", "2", "--backend", "batched"])
        assert exc.value.code == 2
        monkeypatch.setenv("REPRO_ANALYSIS_BACKEND", "batched")
        with pytest.raises(ValueError, match="'batched'"):
            resolve_backend(None)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_BACKEND", "scalar")
        assert resolve_backend(None) == "scalar"
        monkeypatch.delenv("REPRO_ANALYSIS_BACKEND")
        assert resolve_backend(None) == "symbolic"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            analyze(builders.model_1d(upper=3), {}, "magic",
                    config=_config(None))


class TestObsCounters:
    def test_batched_counters_emitted(self):
        # The symbolic route's own counters reach the registry.
        from repro import obs

        prog = builders.matmul_pipelined(3)
        with obs.collecting() as reg:
            res = analyze(prog, {"u": 3}, "exact",
                          config=_config("symbolic"))
        counters = dict(reg.counters)
        assert counters.get("depanalysis.uniform_families", 0) > 0
        for key, value in res.stats.items():
            assert counters.get(f"depanalysis.{key}") == value

    def test_scalar_counters_match_stats(self):
        from repro import obs

        prog = builders.matmul_pipelined(2)
        with obs.collecting() as reg:
            res = analyze(prog, {"u": 2}, "exact", config=_config("scalar"))
        counters = dict(reg.counters)
        for key, value in res.stats.items():
            assert counters.get(f"depanalysis.{key}") == value
