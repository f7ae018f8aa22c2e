"""Tests for the persistent artifact cache: serde, keys, store, policy.

A cache hit must be indistinguishable from a recomputation, so the tests
here demand *exact* round-trips (equal and equal-hashing objects), stable
content-addressed keys under renaming, and end-to-end parity between
cached and uncached analysis runs.
"""

import json
import os

import pytest

from repro.cache import (
    ArtifactCache,
    SCHEMA_VERSION,
    Uncacheable,
    Unserializable,
    algorithm_from_payload,
    algorithm_to_payload,
    analysis_key,
    analysis_result_from_payload,
    analysis_result_to_payload,
    condition_from_payload,
    condition_to_payload,
    decode_obj,
    encode_obj,
    resolve_cache,
    structure_key,
    system_key,
)
from repro.depanalysis import AnalysisConfig, analyze
from repro.expansion.theorem31 import bit_level_structure, matmul_bit_level
from repro.ir import builders
from repro.ir.builders import word_model_structure
from repro.ir.expand import expand_bit_level


class TestTaggedCodec:
    CASES = [
        None,
        True,
        7,
        "s",
        (1, 2),
        [1, (2, 3), "x"],
        {"k": (1, [2])},
        {(1, 2): [3, (4,)]},
        ("lattice", ((1, 0), (0, 1)), ((-2, 2), (-2, 2)), None),
    ]

    @pytest.mark.parametrize("value", CASES)
    def test_round_trip(self, value):
        encoded = encode_obj(value)
        json.dumps(encoded)  # must be JSON-safe
        assert decode_obj(encoded) == value

    def test_tuple_list_distinction(self):
        assert decode_obj(encode_obj((1, 2))) == (1, 2)
        assert decode_obj(encode_obj([1, 2])) == [1, 2]
        assert type(decode_obj(encode_obj((1, 2)))) is tuple
        assert type(decode_obj(encode_obj([1, 2]))) is list

    def test_unencodable(self):
        with pytest.raises(Unserializable):
            encode_obj(object())


class TestStructureSerde:
    def test_condition_round_trip(self):
        alg = matmul_bit_level(3, 3, "II")
        for vec in alg.dependences:
            back = condition_from_payload(condition_to_payload(vec.validity))
            assert back == vec.validity
            assert hash(back) == hash(vec.validity)

    @pytest.mark.parametrize("expansion", ["I", "II"])
    def test_algorithm_round_trip(self, expansion):
        alg = matmul_bit_level(2, 3, expansion)
        payload = algorithm_to_payload(alg)
        json.dumps(payload)
        back = algorithm_from_payload(payload)
        assert back.index_set == alg.index_set
        assert list(back.dependences) == list(alg.dependences)
        assert back.name == alg.name
        assert back.computations.statements == alg.computations.statements

    def test_semantics_not_cacheable(self):
        prog = builders.matmul_pipelined(2)
        alg = word_model_structure([1, 0], [0, 1], [1, 1], [1, 1], [3, 3])
        del prog
        object.__setattr__  # silence lint: attribute poke below is the test
        alg.computations.semantics = lambda *a: None
        with pytest.raises(Unserializable):
            algorithm_to_payload(alg)

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
        assert analysis_key(a, {}, "exact", True) == \
            analysis_key(b, {}, "exact", True)

    def test_analysis_key_separates_method_and_screens(self):
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        keys = {
            analysis_key(prog, {}, "exact", True),
            analysis_key(prog, {}, "exact", False),
            analysis_key(prog, {}, "enumerate", True),
        }
        assert len(keys) == 3

    def test_enumerate_ignores_screens_flag(self):
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        assert analysis_key(prog, {}, "enumerate", True) == \
            analysis_key(prog, {}, "enumerate", False)

    def test_analysis_key_binding_sensitivity(self):
        prog = builders.addshift_pipelined(None)
        assert analysis_key(prog, {"p": 3}, "exact", True) != \
            analysis_key(prog, {"p": 4}, "exact", True)

    def test_unbound_param_uncacheable(self):
        prog = builders.addshift_pipelined(None)
        with pytest.raises(Uncacheable):
            analysis_key(prog, {}, "exact", True)

    def test_structure_key_depends_on_inputs(self):
        word = word_model_structure([0, 1, 0], [1, 0, 0], [0, 0, 1],
                                    [1, 1, 1], [3, 3, 3])
        base = structure_key(word, "add-shift", "II", 3)
        assert base == structure_key(word, "add-shift", "II", 3)
        assert base != structure_key(word, "add-shift", "I", 3)
        assert base != structure_key(word, "add-shift", "II", 4)
        assert base != structure_key(word, "carry-save", "II", 3)

    def test_system_key_hnf_canonical(self):
        # Row-equivalent systems share a key: [j1 - j2 = 1] written two ways.
        a = system_key(((1, -1), (2, -2)), (1, 2))
        b = system_key(((1, -1),), (1,))
        assert a == b
        assert system_key(((1, -1),), (1,)) != system_key(((1, -1),), (2,))


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("k", "ab" * 32) is None
        cache.put("k", "ab" * 32, {"x": [1, 2]})
        assert cache.get("k", "ab" * 32) == {"x": [1, 2]}
        assert cache.hits == 1 and cache.misses == 1

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
        cache.put("k", "aa1", list(range(50)))
        cache.put("k", "bb2", list(range(50)))
        # Cap of one byte: the eviction pass leaves at most one entry.
        assert cache.stats()["entries"] <= 1
        assert cache.evictions >= 1

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
        cache.flush_stats()
        assert main(["cache", "clear", "--dir", str(tmp_path),
                     "--kind", "analysis"]) == 0
        st = ArtifactCache(tmp_path).stats()
        assert st["kinds"] == {"symbolic": 1}
        assert st["store"]["writes"] == 3

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

    def test_cache_shared_across_backends(self, tmp_path):
        # The entry is keyed on the problem, not the backend: a scalar run
        # warms the cache for a batched one.
        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        analyze(prog, {}, "exact",
                config=self._config(tmp_path, backend="scalar"))
        cache = ArtifactCache(tmp_path)
        assert cache.stats()["entries"] == 1
        analyze(prog, {}, "exact",
                config=self._config(tmp_path, backend="batched"))
        assert ArtifactCache(tmp_path).stats()["entries"] == 1

    def test_structure_cache_round_trip(self, tmp_path):
        word = word_model_structure([0, 1, 0], [1, 0, 0], [0, 0, 1],
                                    [1, 1, 1], [3, 3, 3])
        config = AnalysisConfig(cache=True, cache_dir=tmp_path)
        cold = bit_level_structure(word, "add-shift", "II", 3, config=config)
        assert ArtifactCache(tmp_path).stats()["kinds"] == {"structure": 1}
        warm = bit_level_structure(word, "add-shift", "II", 3, config=config)
        assert list(warm.dependences) == list(cold.dependences)
        assert warm.index_set == cold.index_set
        assert warm.name == cold.name

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
        from repro import obs

        prog = expand_bit_level([1], [1], [1], [1], [3], 2, "II")
        config = self._config(tmp_path)
        with obs.collecting() as reg:
            analyze(prog, {}, "exact", config=config)
            analyze(prog, {}, "exact", config=config)
        counters = dict(reg.counters)
        assert counters.get("cache.misses") == 1
        assert counters.get("cache.writes") == 1
        assert counters.get("cache.hits") == 1


class TestSharedStats:
    """The cross-process stats ledger: atomic, delta-based, lock-guarded.

    Regression for the double-reporting bug: each process used to dump
    its *cumulative* session counters into the shared stats file, so two
    processes (or two flushes) sharing a store dir counted the same hits
    twice.  The ledger now accumulates per-flush deltas under the store's
    file lock, which makes flushing idempotent and cross-process totals
    exact sums.
    """

    def _one_session(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.get("k", "ab" * 32)          # miss
        cache.put("k", "ab" * 32, [1, 2])  # write
        cache.get("k", "ab" * 32)          # hit
        return cache

    def test_flush_is_idempotent(self, tmp_path):
        cache = self._one_session(tmp_path)
        first = cache.flush_stats()
        again = cache.flush_stats()
        third = cache.stats()["store"]
        assert first == again == third
        assert first["hits"] == 1
        assert first["misses"] == 1
        assert first["writes"] == 1

    def test_two_sessions_sum_not_double(self, tmp_path):
        a = self._one_session(tmp_path)
        a.flush_stats()
        a.flush_stats()  # re-flush must not re-add the same deltas
        b = ArtifactCache(tmp_path)
        b.get("k", "ab" * 32)  # hit (entry written by session a)
        b.get("k", "cd" * 32)  # miss
        b.flush_stats()
        totals = ArtifactCache(tmp_path).stats()["store"]
        assert totals["hits"] == 2
        assert totals["misses"] == 2
        assert totals["writes"] == 1

    def test_cross_process_totals_are_exact(self, tmp_path):
        import subprocess
        import sys

        script = (
            "from repro.cache import ArtifactCache; "
            f"c = ArtifactCache({str(tmp_path)!r}); "
            "c.get('k', 'ee' * 32); "
            "c.put('k', 'ee' * 32, [1]); "
            "c.get('k', 'ee' * 32); "
            "c.flush_stats(); c.flush_stats()"
        )
        for _ in range(2):
            subprocess.run(
                [sys.executable, "-c", script], check=True,
                env={**os.environ, "PYTHONPATH": "src"},
            )
        totals = ArtifactCache(tmp_path).stats()["store"]
        # First process: miss, write, hit.  Second: hit, write, hit.
        # Every increment lands exactly once despite double flushes.
        assert totals["misses"] == 1
        assert totals["writes"] == 2
        assert totals["hits"] == 3

    def test_stats_ledger_is_not_a_cache_entry(self, tmp_path):
        cache = self._one_session(tmp_path)
        cache.flush_stats()
        st = cache.stats()
        assert st["entries"] == 1
        assert cache.clear() == 1
        # A fresh flush after clear must not resurrect pre-clear deltas.
        assert cache.flush_stats()["hits"] == 0

    def test_concurrent_flushes_lose_nothing(self, tmp_path):
        import threading

        caches = []
        for _ in range(4):
            cache = ArtifactCache(tmp_path)
            cache.hits = 25  # simulate 25 hits in this "process"
            caches.append(cache)
        threads = [
            threading.Thread(target=c.flush_stats) for c in caches
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ArtifactCache(tmp_path).stats()["store"]["hits"] == 100


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
