"""The on-disk artifact store.

Content-addressed JSON files under a versioned root::

    <root>/v1/<kind>/<key[:2]>/<key>.json

``<root>`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; the
``v<SCHEMA_VERSION>`` level invalidates everything at once when payload
shapes change (bump :data:`SCHEMA_VERSION`, old dirs become dead weight
that ``repro cache clear`` removes).  Writes are atomic (temp file +
``os.replace``), reads touch the entry's mtime so the byte-cap eviction
in :meth:`ArtifactCache.put` is LRU, and any unreadable/corrupt entry is
treated as a miss and deleted.  The store is best-effort throughout: I/O
errors disable the affected operation, never the caller.

**Shared mode.**  A store directory may be shared by many processes at
once (the ``repro.serve`` front-end, its workers, and any number of
CLI runs).  Entry reads/writes are already safe to interleave (atomic
replace + whole-file reads), so the two cross-process hazards are the
read-modify-write operations: LRU eviction and the persistent stats
ledger.  Both run under an advisory :class:`~repro.cache.lock.FileLock`
on ``<base>/.lock`` when ``shared=True`` (the default).  Session
counters (hits/misses/evictions/writes of *this* process) are flushed
to ``<root>/stats.json`` as **deltas** under the lock -- flushing is
idempotent (a counter increment is added to the ledger exactly once, no
matter how often :meth:`flush_stats` runs) and lock-serialized, so two
processes sharing a store dir cannot lose or double-report counts.

Library code resolves whether to cache via :func:`resolve_cache`: an
explicit ``True``/``False`` wins, ``None`` means "enabled iff
``REPRO_CACHE_DIR`` is set", so plain library calls never write to
``~/.cache`` unless the user opted in (the ``repro analyze`` CLI flips
the default to on).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import tempfile

from repro import obs
from repro.cache.lock import FileLock

__all__ = [
    "SCHEMA_VERSION",
    "ENV_DIR",
    "ArtifactCache",
    "default_cache_root",
    "resolve_cache",
]

SCHEMA_VERSION = 1
ENV_DIR = "REPRO_CACHE_DIR"
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: what ``clear(kind=...)`` accepts: one artifact-kind directory name.
_KIND_NAME = re.compile(r"[a-z][a-z0-9-]*")
#: the cross-process stats ledger, directly under the versioned root.
_STATS_NAME = "stats.json"
#: session counters accumulated into the ledger.
_STATS_KEYS = ("hits", "misses", "evictions", "writes")


def default_cache_root() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get(ENV_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


class ArtifactCache:
    """Content-addressed persistent cache with an LRU byte cap.

    ``shared=True`` (default) serializes eviction and stats-ledger
    updates across processes with a file lock; ``shared=False`` skips
    the locking for strictly-private store dirs.
    """

    __slots__ = (
        "base", "root", "max_bytes", "hits", "misses", "evictions", "writes",
        "shared", "_lock", "_flushed",
    )

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        shared: bool = True,
    ):
        self.base = pathlib.Path(root) if root is not None else default_cache_root()
        self.root = self.base / f"v{SCHEMA_VERSION}"
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0
        self.shared = bool(shared)
        self._lock = FileLock(self.base / ".lock")
        #: session counts already accumulated into the on-disk ledger;
        #: flushing writes only the delta beyond this snapshot, so the
        #: same increment can never be reported twice.
        self._flushed = dict.fromkeys(_STATS_KEYS, 0)

    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.root / kind / key[:2] / f"{key}.json"

    def _locked(self):
        """The store lock in shared mode; a no-op context otherwise."""
        if self.shared:
            return self._lock
        return _UNLOCKED

    # -- core operations ------------------------------------------------------
    def get(self, kind: str, key: str):
        """The stored payload, or ``None`` on miss (corrupt entries vanish)."""
        path = self._path(kind, key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            obs.count("cache.misses")
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            obs.count("cache.misses")
            return None
        try:
            os.utime(path)  # recency for LRU eviction
        except OSError:
            pass
        self.hits += 1
        obs.count("cache.hits")
        return payload

    def put(self, kind: str, key: str, payload) -> None:
        """Atomically store ``payload`` (JSON), then enforce the byte cap."""
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                # No sort_keys: dict insertion order is part of the exact
                # round-trip contract (e.g. AnalysisResult.stats ordering).
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, TypeError, ValueError):
            return  # best-effort: an unwritable cache must not fail the caller
        self.writes += 1
        obs.count("cache.writes")
        try:
            obs.count("cache.put_bytes", path.stat().st_size)
        except OSError:
            pass
        with self._locked():
            self._evict()

    # -- maintenance ----------------------------------------------------------
    def _entries(self) -> list[tuple[pathlib.Path, os.stat_result]]:
        out = []
        try:
            for path in self.root.rglob("*.json"):
                if path.parent == self.root:
                    continue  # the stats ledger is not a cache entry
                try:
                    out.append((path, path.stat()))
                except OSError:
                    continue
        except OSError:
            pass
        return out

    def _evict(self) -> None:
        entries = self._entries()
        total = sum(st.st_size for _, st in entries)
        if total > self.max_bytes:
            entries.sort(key=lambda e: e[1].st_mtime)  # oldest access first
            for path, st in entries:
                if total <= self.max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= st.st_size
                self.evictions += 1
                obs.count("cache.evictions")
        obs.gauge("cache.bytes_on_disk", total)

    # -- the cross-process stats ledger ---------------------------------------
    def _session_counts(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writes": self.writes,
        }

    def _read_ledger(self) -> dict:
        try:
            raw = json.loads((self.root / _STATS_NAME).read_text())
            return {k: int(raw.get(k, 0)) for k in _STATS_KEYS}
        except (OSError, ValueError, TypeError, AttributeError):
            return dict.fromkeys(_STATS_KEYS, 0)

    def flush_stats(self) -> dict:
        """Accumulate this session's *new* counts into the shared ledger.

        Idempotent: only the delta since the previous flush is added, so
        calling this any number of times (or from any number of
        processes under the lock) reports each increment exactly once.
        Returns the ledger totals after the update (best-effort: on I/O
        failure the current on-disk view is returned unchanged).
        """
        session = self._session_counts()
        delta = {k: session[k] - self._flushed[k] for k in _STATS_KEYS}
        if not any(delta.values()):
            return self._read_ledger()
        with self._locked():
            totals = self._read_ledger()
            for k in _STATS_KEYS:
                totals[k] += delta[k]
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w") as fh:
                        json.dump(totals, fh)
                    os.replace(tmp, self.root / _STATS_NAME)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError:
                return totals  # best-effort: ledger unavailable
        self._flushed = session
        return totals

    def stats(self) -> dict:
        """Snapshot of the on-disk store (entry/byte counts per kind).

        Flushes this session's counters first, so ``store`` holds the
        exact cross-process totals accumulated in the shared ledger.
        """
        store_totals = self.flush_stats()
        entries = self._entries()
        kinds: dict[str, int] = {}
        for path, _st in entries:
            try:
                kind = path.relative_to(self.root).parts[0]
            except (ValueError, IndexError):
                kind = "?"
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "root": str(self.base),
            "schema_version": SCHEMA_VERSION,
            "entries": len(entries),
            "bytes": sum(st.st_size for _, st in entries),
            "max_bytes": self.max_bytes,
            "kinds": dict(sorted(kinds.items())),
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            },
            "store": store_totals,
        }

    def clear(self, kind: str | None = None) -> int:
        """Remove cache entries; returns the number removed.

        With ``kind=None``, every versioned cache dir under the base is
        removed (only ``v*`` subdirectories are touched, so pointing
        ``REPRO_CACHE_DIR`` at a shared directory cannot lose user
        data).  With a ``kind`` (e.g. ``"analysis"``), only that kind's
        subtree is removed from each versioned dir -- other artifact
        kinds and the stats ledger stay intact.  A ``kind`` that is not
        one lowercase name (``[a-z][a-z0-9-]*``: no separators, no
        ``..``, not empty) raises :class:`ValueError` before anything is
        removed, so it can never reach outside the versioned dirs.
        """
        import shutil

        if kind is not None and not _KIND_NAME.fullmatch(kind):
            raise ValueError(
                f"invalid cache kind {kind!r}: expected one lowercase "
                f"name matching {_KIND_NAME.pattern}"
            )
        removed = 0
        try:
            version_dirs = [
                d for d in self.base.glob("v*") if d.is_dir()
            ]
        except OSError:
            return 0
        for vdir in version_dirs:
            target = vdir if kind is None else vdir / kind
            if not target.is_dir():
                continue
            removed += sum(
                1 for p in target.rglob("*.json") if p.parent != vdir
            )
            shutil.rmtree(target, ignore_errors=True)
        if kind is None:
            self._flushed = self._session_counts()  # ledger gone; don't re-add
        return removed

    def __repr__(self) -> str:
        return (
            f"ArtifactCache({str(self.base)!r}, {self.hits} hits, "
            f"{self.misses} misses)"
        )


class _Unlocked:
    """Context stand-in used when ``shared=False``."""

    __slots__ = ()
    held = False

    def __enter__(self) -> "_Unlocked":
        return self

    def __exit__(self, *exc) -> None:
        return None


_UNLOCKED = _Unlocked()


def resolve_cache(
    enabled: bool | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> ArtifactCache | None:
    """Resolve the caching policy to a store (or ``None`` = disabled).

    ``enabled=None`` enables the cache iff an explicit ``cache_dir`` is
    given or ``$REPRO_CACHE_DIR`` is set -- library calls never touch
    ``~/.cache`` without an opt-in.
    """
    if enabled is None:
        enabled = cache_dir is not None or bool(os.environ.get(ENV_DIR))
    if not enabled:
        return None
    return ArtifactCache(cache_dir)
