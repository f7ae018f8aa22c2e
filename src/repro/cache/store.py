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

**Counting.**  The store keeps no counts of its own: every hit, miss,
write and eviction is a ``cache.*`` counter of the ambient
:mod:`repro.obs` registry, so a job's metrics say what the cache did for
that job.  Only files of the entry shape above are entries; anything
else under ``v1/`` is neither counted nor evicted.

**Sharing.**  A store directory may be shared by many processes at
once (the ``repro.serve`` front-end, its workers, and any number of
CLI runs).  Entry reads/writes are already safe to interleave (atomic
replace + whole-file reads), so the one cross-process hazard is the
read-modify-write of LRU eviction, which always runs under an advisory
:class:`~repro.cache.lock.FileLock` on ``<base>/.lock``.  A hit takes no
lock (it only touches the entry's mtime); a write takes it once.

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
#: the entries under a versioned root: ``<kind>/<key[:2]>/<key>.json``.
_ENTRY_GLOB = "*/*/*.json"


def default_cache_root() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get(ENV_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


class ArtifactCache:
    """Content-addressed persistent cache with an LRU byte cap.

    Eviction is serialized across processes with a file lock, so any
    number of processes may share one store.
    """

    __slots__ = ("base", "root", "max_bytes", "_lock")

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        self.base = pathlib.Path(root) if root is not None else default_cache_root()
        self.root = self.base / f"v{SCHEMA_VERSION}"
        self.max_bytes = max_bytes
        self._lock = FileLock(self.base / ".lock")

    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.root / kind / key[:2] / f"{key}.json"

    # -- core operations ------------------------------------------------------
    def get(self, kind: str, key: str):
        """The stored payload, or ``None`` on miss (corrupt entries vanish)."""
        path = self._path(kind, key)
        try:
            raw = path.read_text()
        except OSError:
            obs.count("cache.misses")
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            try:
                path.unlink()
            except OSError:
                pass
            obs.count("cache.misses")
            return None
        try:
            os.utime(path)  # recency for LRU eviction
        except OSError:
            pass
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
                # ``dumps`` takes the C encoder; ``json.dump`` never does.
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(payload))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, TypeError, ValueError):
            return  # best-effort: an unwritable cache must not fail the caller
        obs.count("cache.writes")
        try:
            obs.count("cache.put_bytes", path.stat().st_size)
        except OSError:
            pass
        with self._lock:
            self._evict()

    # -- maintenance ----------------------------------------------------------
    def _entries(self) -> list[tuple[pathlib.Path, os.stat_result]]:
        out = []
        try:
            for path in self.root.glob(_ENTRY_GLOB):
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
                obs.count("cache.evictions")
        obs.gauge("cache.bytes_on_disk", total)

    def stats(self) -> dict:
        """Snapshot of the on-disk store (entry/byte counts per kind)."""
        entries = self._entries()
        kinds: dict[str, int] = {}
        for path, _st in entries:
            kind = path.parent.parent.name
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "root": str(self.base),
            "schema_version": SCHEMA_VERSION,
            "entries": len(entries),
            "bytes": sum(st.st_size for _, st in entries),
            "max_bytes": self.max_bytes,
            "kinds": dict(sorted(kinds.items())),
        }

    def clear(self, kind: str | None = None) -> int:
        """Remove cache entries; returns the number removed.

        With ``kind=None``, every versioned cache dir under the base is
        removed (only ``v*`` subdirectories are touched, so pointing
        ``REPRO_CACHE_DIR`` at a shared directory cannot lose user
        data).  With a ``kind`` (e.g. ``"analysis"``), only that kind's
        subtree is removed from each versioned dir -- other artifact
        kinds stay intact.  A ``kind`` that is not
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
        pattern = _ENTRY_GLOB if kind is None else f"{kind}/*/*.json"
        for vdir in version_dirs:
            target = vdir if kind is None else vdir / kind
            if not target.is_dir():
                continue
            removed += sum(1 for _ in vdir.glob(pattern))
            shutil.rmtree(target, ignore_errors=True)
        return removed

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.base)!r})"


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
