"""Tests for the persistent artifact cache: serde, keys, store, policy.

A cache hit must be indistinguishable from a recomputation, so the tests
here demand *exact* round-trips (equal and equal-hashing objects), stable
content-addressed keys under renaming, and end-to-end parity between
cached and uncached analysis runs.
"""

import base64
import gc
import json
import os
import re

import numpy as np
import pytest

from repro import obs
from repro.cache import (
    ArtifactCache,
    SCHEMA_VERSION,
    Uncacheable,
    analysis_key,
    analysis_result_from_payload,
    analysis_result_to_payload,
    condition_from_payload,
    condition_to_payload,
    resolve_cache,
)
from repro.depanalysis import AnalysisConfig, DependenceInstance, analyze
from repro.expansion.theorem31 import matmul_bit_level
from repro.ir import builders
from repro.ir.expand import expand_bit_level
from repro.ir.expr import var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.pipeline import BitLevelDesigner
from repro.structures.indexset import IndexSet


class TestStructureSerde:
    def test_condition_round_trip(self):
        alg = matmul_bit_level(3, 3, "II")
        for vec in alg.dependences:
            back = condition_from_payload(condition_to_payload(vec.validity))
            assert back == vec.validity
            assert hash(back) == hash(vec.validity)

    def test_analysis_result_round_trip(self):
        result = analyze(builders.matmul_pipelined(3), {"u": 3}, "exact",
                         config=AnalysisConfig(cache=False))
        payload = analysis_result_to_payload(result)
        json.dumps(payload)
        back = analysis_result_from_payload(payload)
        assert [i.key() for i in back.instances] == [
            i.key() for i in result.instances
        ]
        assert back.stats == result.stats


class TestKeys:
    def test_analysis_key_stable_under_renaming(self):
        a = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        b = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        assert analysis_key(a, {}, "exact", True, "scalar") == \
            analysis_key(b, {}, "exact", True, "scalar")

    def test_analysis_key_separates_method_and_screens(self):
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        keys = {
            analysis_key(prog, {}, "exact", True, "scalar"),
            analysis_key(prog, {}, "exact", False, "scalar"),
            analysis_key(prog, {}, "exact", True, "symbolic"),
            analysis_key(prog, {}, "enumerate", True, "scalar"),
        }
        assert len(keys) == 4

    def test_enumerate_ignores_screens_flag(self):
        # ...and the backend: every backend runs the same hash-join.
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        assert analysis_key(prog, {}, "enumerate", True, "scalar") == \
            analysis_key(prog, {}, "enumerate", False, "symbolic")

    def test_analysis_key_binding_sensitivity(self):
        prog = builders.addshift_pipelined(None)
        assert analysis_key(prog, {"p": 3}, "exact", True, "scalar") != \
            analysis_key(prog, {"p": 4}, "exact", True, "scalar")

    def test_unbound_param_uncacheable(self):
        prog = builders.addshift_pipelined(None)
        with pytest.raises(Uncacheable):
            analysis_key(prog, {}, "exact", True, "scalar")


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with obs.collecting() as reg:
            assert cache.get("k", "ab" * 32) is None
            cache.put("k", "ab" * 32, {"x": [1, 2]})
            assert cache.get("k", "ab" * 32) == {"x": [1, 2]}
        counters = dict(reg.counters)
        assert counters["cache.hits"] == counters["cache.misses"] == 1

    def test_layout_versioned(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("analysis", "deadbeef", 1)
        path = tmp_path / f"v{SCHEMA_VERSION}" / "analysis" / "de"
        assert (path / "deadbeef.json").exists()

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", "feedface", [1])
        path = cache._path("k", "feedface")
        path.write_text("{not json")
        assert cache.get("k", "feedface") is None
        assert not path.exists()

    def test_lru_eviction(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=1)
        with obs.collecting() as reg:
            cache.put("k", "aa1", list(range(50)))
            cache.put("k", "bb2", list(range(50)))
        # Cap of one byte: the eviction pass leaves at most one entry.
        assert cache.stats()["entries"] <= 1
        assert dict(reg.counters)["cache.evictions"] >= 1

    def test_eviction_is_lru(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=10**9)
        cache.put("k", "old1", list(range(50)))
        cache.put("k", "new2", list(range(50)))
        os.utime(cache._path("k", "old1"), (1, 1))  # force "old" recency
        cache.max_bytes = cache.stats()["bytes"] - 1
        cache.put("k", "cc3", [1])
        remaining = {p.stem for p, _ in cache._entries()}
        assert "old1" not in remaining
        assert "new2" in remaining

    @pytest.mark.parametrize("kind", ["analysis", "symbolic"])
    def test_put_writes_dumps_text_with_the_c_encoder(
        self, tmp_path, monkeypatch, kind
    ):
        from repro.structures.params import S
        from repro.symbolic import analyze_symbolic
        from repro.symbolic.serde import symbolic_result_to_payload

        if kind == "analysis":
            payload = analysis_result_to_payload(analyze(
                expand_bit_level([1], [1], [1], [1], [3], 2, "II"), {},
                config=AnalysisConfig(cache=False),
            ))
        else:
            payload = symbolic_result_to_payload(analyze_symbolic(
                expand_bit_level([1], [1], [1], [1], [S("u")], S("p"), "II"),
                cache=False,
            ))
        calls = []
        real = json.encoder._make_iterencode

        def pure_python_encoder(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(json.encoder, "_make_iterencode",
                            pure_python_encoder)
        cache = ArtifactCache(tmp_path)
        cache.put(kind, "ab" * 32, payload)
        assert calls == []
        assert cache._path(kind, "ab" * 32).read_text() == json.dumps(payload)

    def test_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("analysis", "aa", 1)
        cache.put("structure", "bb", 2)
        st = cache.stats()
        assert st["entries"] == 2
        assert st["kinds"] == {"analysis": 1, "structure": 1}
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_clear_only_touches_versioned_dirs(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", "aa", 1)
        keep = tmp_path / "user-data.txt"
        keep.write_text("precious")
        cache.clear()
        assert keep.read_text() == "precious"

    def test_clear_one_kind_keeps_other_kinds_and_ledger(self, tmp_path):
        from repro.__main__ import main

        cache = ArtifactCache(tmp_path)
        cache.put("analysis", "aa" * 32, 1)
        cache.put("analysis", "bb" * 32, 2)
        cache.put("symbolic", "cc" * 32, 3)
        # A ledger an older version left is no entry: never counted, and
        # clearing one kind leaves it where it is.
        ledger = tmp_path / f"v{SCHEMA_VERSION}" / "stats.json"
        ledger.write_text(json.dumps({"hits": 7}))
        assert main(["cache", "clear", "--dir", str(tmp_path),
                     "--kind", "analysis"]) == 0
        st = ArtifactCache(tmp_path).stats()
        assert st["kinds"] == {"symbolic": 1}
        assert st["entries"] == 1
        assert ledger.exists()

    @pytest.mark.parametrize("kind", ["..", "", "a/b", "<absolute>"])
    def test_clear_rejects_kind_that_is_not_one_name(self, tmp_path, kind):
        from repro.__main__ import main

        base = tmp_path / "cache"
        cache = ArtifactCache(base)
        cache.put("analysis", "aa" * 32, 1)
        beside = base / "user-data.txt"
        beside.write_text("precious")
        outside = tmp_path / "elsewhere"
        outside.mkdir()
        (outside / "user-data.txt").write_text("precious")
        if kind == "<absolute>":
            kind = str(outside)
        with pytest.raises(ValueError, match="invalid cache kind"):
            cache.clear(kind=kind)
        assert main(["cache", "clear", "--dir", str(base),
                     "--kind", kind]) == 2
        assert beside.read_text() == "precious"
        assert (outside / "user-data.txt").read_text() == "precious"
        assert ArtifactCache(base).stats()["kinds"] == {"analysis": 1}


class TestPolicy:
    def test_disabled_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None, None) is None

    def test_env_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = resolve_cache(None, None)
        assert cache is not None and cache.base == tmp_path

    def test_explicit_dir_enables(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None, tmp_path) is not None

    def test_false_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache(False, None) is None


class TestEndToEnd:
    def _config(self, tmp_path, backend=None):
        return AnalysisConfig(backend=backend, cache=True, cache_dir=tmp_path)

    @pytest.mark.parametrize("method", ["exact", "enumerate"])
    def test_analysis_cache_parity(self, tmp_path, method):
        prog = expand_bit_level([0, 1], [1, 0], [0, 1], [1, 1], [2, 2], 2,
                                "II")
        config = self._config(tmp_path)
        cold = analyze(prog, {"p": 2}, method, config=config)
        warm = analyze(prog, {"p": 2}, method, config=config)
        uncached = analyze(prog, {"p": 2}, method,
                           config=AnalysisConfig(cache=False))
        for other in (warm, uncached):
            assert [i.key() for i in cold.instances] == [
                i.key() for i in other.instances
            ]
            assert cold.stats == other.stats
            # Exact round-trip includes dict key *order*, not just equality.
            assert list(cold.stats) == list(other.stats)

    def test_each_backend_reads_back_its_own_entry(self, tmp_path):
        # The routes agree on instances but not on stats, so the backend is
        # part of the key: each warm read returns its own route's stats.
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        cold = {}
        for backend in ("scalar", "symbolic"):
            cold[backend] = analyze(
                prog, {}, "exact",
                config=self._config(tmp_path, backend=backend),
            )
        assert ArtifactCache(tmp_path).stats()["entries"] == 2
        assert "candidates_verified" in cold["scalar"].stats
        assert "uniform_families" in cold["symbolic"].stats
        for backend, want in cold.items():
            warm = analyze(prog, {}, "exact",
                           config=self._config(tmp_path, backend=backend))
            assert [i.key() for i in warm.instances] == [
                i.key() for i in cold["scalar"].instances
            ]
            assert warm.stats == want.stats
        assert ArtifactCache(tmp_path).stats()["entries"] == 2

    def test_theorem31_structure_is_not_persisted(self, tmp_path):
        # The O(1) construction is cheaper than a warm read, so a cache
        # policy on the designer reaches only its analysis steps.
        designer = BitLevelDesigner(
            h1=[0, 1, 0], h2=[1, 0, 0], h3=[0, 0, 1],
            lowers=[1, 1, 1], uppers=[3, 3, 3], p=3,
            analysis=AnalysisConfig(cache=True, cache_dir=tmp_path),
        )
        designer.structure()
        assert ArtifactCache(tmp_path).stats()["entries"] == 0

    def test_corrupted_analysis_entry_recomputed(self, tmp_path):
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        config = self._config(tmp_path)
        cold = analyze(prog, {}, "exact", config=config)
        cache = ArtifactCache(tmp_path)
        (path, _stat), = cache._entries()
        path.write_text(json.dumps({"wrong": "shape"}))
        again = analyze(prog, {}, "exact", config=config)
        assert [i.key() for i in again.instances] == [
            i.key() for i in cold.instances
        ]

    def test_cache_obs_counters(self, tmp_path):
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        config = self._config(tmp_path)
        with obs.collecting() as reg:
            analyze(prog, {}, "exact", config=config)
            analyze(prog, {}, "exact", config=config)
        counters = dict(reg.counters)
        assert counters.get("cache.misses") == 1
        assert counters.get("cache.writes") == 1
        assert counters.get("cache.hits") == 1


def _matmul(u, p, expansion="II"):
    return expand_bit_level([0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1],
                            [u, u, u], p, expansion)


def _live_instances() -> int:
    gc.collect()
    return sum(isinstance(o, DependenceInstance) for o in gc.get_objects())


def _entry_path(cache_dir):
    (path, _stat), = ArtifactCache(cache_dir)._entries()
    return path


def _row_list(entry) -> dict:
    """The entry in the row-list shape older versions wrote."""
    result = analysis_result_from_payload(entry)
    return {
        "instances": [[list(i.sink), list(i.vector), i.variable, i.kind]
                      for i in result.instances],
        "stats": entry["stats"],
    }


def _vector_index_past_end(entry) -> dict:
    raw = base64.b64decode(entry["rows"])
    rows = np.frombuffer(raw, entry["dtype"]).reshape(entry["shape"]).copy()
    rows[0, entry["shape"][1] - 3] = len(entry["vectors"])
    return {**entry, "rows": base64.b64encode(rows.tobytes()).decode()}


CORRUPTIONS = {
    "row-list": _row_list,
    "truncated-rows": lambda e: {**e, "rows": e["rows"][:-4]},
    "shape-disagrees": lambda e: {**e, "shape": [e["shape"][0] + 1,
                                                 e["shape"][1]]},
    "vector-index-out-of-range": _vector_index_past_end,
}


class TestRowTable:
    """An analysis result is one sorted row table: its view equals the
    scalar route's instances, a warm read builds no instance object, and
    an entry the decoder cannot check is recomputed and overwritten."""

    @pytest.mark.parametrize("expansion", ["I", "II"])
    @pytest.mark.parametrize("u,p", [(u, p) for u in (2, 3, 4)
                                     for p in (2, 3, 4)])
    def test_view_equals_scalar_route_cold_and_warm(
        self, tmp_path, u, p, expansion
    ):
        prog = _matmul(u, p, expansion)
        want = analyze(prog, {"p": p},
                       config=AnalysisConfig(backend="scalar", cache=False))
        keys = [i.key() for i in want.instances]
        assert keys == sorted(set(keys))
        config = AnalysisConfig(backend="symbolic", cache=True,
                                cache_dir=tmp_path)
        with obs.collecting() as reg:
            results = [analyze(prog, {"p": p}, config=config)
                       for _ in ("cold", "warm")]
        assert dict(reg.counters)["cache.hits"] == 1
        n = len(keys)
        for got in results:
            assert len(got.instances) == n == got.stats["instances"]
            assert [i.key() for i in got.instances] == keys
            assert tuple(got.instances) == tuple(want.instances)
            for index in (0, n // 2, n - 1, -1, -n):
                assert got.instances[index].key() == keys[index]
            assert [i.key() for i in got.instances[1:-1:7]] == keys[1:-1:7]
            with pytest.raises(IndexError):
                got.instances[n]

    def test_warm_read_answers_without_instance_objects(self, tmp_path):
        prog = _matmul(4, 3)
        config = AnalysisConfig(cache=True, cache_dir=tmp_path)
        cold = analyze(prog, {"p": 3}, config=config)
        before = _live_instances()
        with obs.collecting() as reg:
            warm = analyze(prog, {"p": 3}, config=config)
        answers = (len(warm.instances), warm.distinct_vectors(),
                   list(warm.stats.items()))
        assert _live_instances() == before
        assert dict(reg.counters)["cache.hits"] == 1
        assert answers == (2000, cold.distinct_vectors(),
                           list(cold.stats.items()))

    def test_empty_result_round_trips(self, tmp_path):
        j = var("j")
        prog = LoopNest(
            ("j",), IndexSet([1], [4], ("j",)),
            [Statement("S", ArrayAccess("x", [j]), [ArrayAccess("y", [j])])],
        )
        config = AnalysisConfig(cache=True, cache_dir=tmp_path)
        with obs.collecting() as reg:
            cold = analyze(prog, {}, config=config)
            warm = analyze(prog, {}, config=config)
        assert dict(reg.counters)["cache.hits"] == 1
        for result in (cold, warm):
            assert len(result.instances) == 0 == result.stats["instances"]
            assert tuple(result.instances) == ()
            assert result.distinct_vectors() == []
            assert result.vectors_by_variable() == {}
        assert list(warm.stats.items()) == list(cold.stats.items())
        entry = json.loads(_entry_path(tmp_path).read_text())
        assert entry["shape"][0] == 0 and entry["rows"] == ""

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_malformed_entry_recomputed_and_overwritten(
        self, tmp_path, capsys, corruption
    ):
        from repro.__main__ import main

        def untimed(out):
            return re.sub(r" \([0-9.]+s\)$", "", out, flags=re.M)

        argv = ["analyze", "--u", "2", "--p", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        want = untimed(capsys.readouterr().out)
        path = _entry_path(tmp_path)
        good = json.loads(path.read_text())
        bad = CORRUPTIONS[corruption](good)
        assert bad != good
        with pytest.raises((KeyError, TypeError, ValueError)):
            analysis_result_from_payload(bad)
        path.write_text(json.dumps(bad))
        assert main(argv) == 0
        assert untimed(capsys.readouterr().out) == want
        assert json.loads(path.read_text()) == good


class TestOneRecord:
    """The store counts only through ``repro.obs``: it writes no file but
    its entries, and a hit takes no lock."""

    def _lock_count(self, monkeypatch):
        from repro.cache import FileLock

        calls = []
        real = FileLock.acquire

        def counting(lock, timeout=None):
            calls.append(lock.path)
            return real(lock, timeout)

        monkeypatch.setattr(FileLock, "acquire", counting)
        return calls

    def test_lock_taken_once_cold_and_never_warm(self, tmp_path, monkeypatch):
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        config = AnalysisConfig(cache=True, cache_dir=tmp_path)
        calls = self._lock_count(monkeypatch)
        analyze(prog, {}, "exact", config=config)
        assert len(calls) == 1  # the eviction pass after the write
        analyze(prog, {}, "exact", config=config)
        assert len(calls) == 1

    def _both_kinds(self, tmp_path):
        """A cold and two warm ``analyze`` calls, then a cold and a
        disk-warm ``analyze_symbolic``, on one fresh store; returns the
        run's counters and the files under the versioned root."""
        from repro.structures.params import S
        from repro.symbolic import analyze_symbolic
        from repro.symbolic.analyze import clear_memo

        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        config = AnalysisConfig(cache=True, cache_dir=tmp_path)
        symbolic = expand_bit_level([1], [1], [1], [1], [S("u")], S("p"), "II")
        clear_memo()
        with obs.collecting() as reg:
            for _ in range(3):
                analyze(prog, {}, "exact", config=config)
            analyze_symbolic(symbolic, cache=True, cache_dir=tmp_path)
            clear_memo()  # the next call reads the disk entry
            analyze_symbolic(symbolic, cache=True, cache_dir=tmp_path)
        root = tmp_path / f"v{SCHEMA_VERSION}"
        files = sorted(
            path.relative_to(root).as_posix()
            for path in root.rglob("*") if path.is_file()
        )
        return dict(reg.counters), files

    def test_both_kinds_count_through_obs(self, tmp_path):
        counters, _ = self._both_kinds(tmp_path)
        assert (counters["cache.hits"], counters["cache.misses"],
                counters["cache.writes"]) == (3, 2, 2)

    def test_store_writes_only_its_entries(self, tmp_path):
        _, files = self._both_kinds(tmp_path)
        assert [f.split("/")[0] for f in files] == ["analysis", "symbolic"]
        assert "stats.json" not in files

    def test_cache_stats_reads_entries_not_a_ledger(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = ArtifactCache(tmp_path)
        cache.put("analysis", "aa" * 32, 1)
        cache.put("symbolic", "bb" * 32, 2)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        before = capsys.readouterr().out
        ledger = tmp_path / f"v{SCHEMA_VERSION}" / "stats.json"
        ledger.write_text(json.dumps({"hits": 3, "misses": 1}))
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == before
        assert "entries: 2 " in out
        assert "  analysis: 1 entries" in out and "  symbolic: 1 entries" in out
        assert "this process" not in out and "store totals" not in out
        cache.max_bytes = 1
        cache.put("analysis", "cc" * 32, 3)  # evicts entries, not the ledger
        assert ledger.exists()


class TestFileLock:
    def test_mutual_exclusion_across_threads(self, tmp_path):
        import threading

        from repro.cache import FileLock

        counter_file = tmp_path / "counter.txt"
        counter_file.write_text("0")

        def bump():
            for _ in range(25):
                with FileLock(tmp_path / "guard.lock") as lock:
                    assert lock.held
                    value = int(counter_file.read_text())
                    counter_file.write_text(str(value + 1))

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter_file.read_text() == "100"

    def test_reentrant_within_a_thread(self, tmp_path):
        from repro.cache import FileLock

        lock = FileLock(tmp_path / "guard.lock")
        with lock as outer:
            assert outer.held
            with lock as inner:
                assert inner.held
            assert lock.held
        assert not lock.held

    def test_contention_times_out_without_raising(self, tmp_path):
        from repro.cache import FileLock

        holder = FileLock(tmp_path / "guard.lock", timeout=1.0)
        assert holder.acquire()
        try:
            contender = FileLock(tmp_path / "guard.lock", timeout=0.05)
            with contender as lock:
                assert not lock.held  # degraded, not crashed
        finally:
            holder.release()
