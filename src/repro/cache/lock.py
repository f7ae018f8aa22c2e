"""Advisory cross-process file locking for the shared artifact store.

Multiple worker processes and the ``repro.serve`` front-end share one
``$REPRO_CACHE_DIR``; the individual entry files are already safe to
share (atomic ``os.replace`` writes, whole-file reads), but LRU eviction
is read-modify-write over shared state and needs mutual exclusion: two
processes scanning and deleting concurrently can both count the same
bytes and over-evict.

:class:`FileLock` wraps eviction in an advisory ``fcntl.flock`` on a
dedicated ``.lock`` file next to the versioned store (the lock file is
never deleted, so the inode every process locks is stable).  On
platforms without ``fcntl`` it degrades to an ``O_CREAT | O_EXCL``
spin lock with a stale-lock ceiling.  Acquisition is best-effort with a
timeout: the cache philosophy is that an unavailable lock must degrade
the *guarantee* (callers may proceed unlocked and note it via the
``cache.lock_timeouts`` counter), never fail the caller.
"""

from __future__ import annotations

import os
import pathlib
import time

from repro import obs

try:  # POSIX
    import fcntl

    HAVE_FCNTL = True
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None
    HAVE_FCNTL = False

__all__ = ["FileLock", "HAVE_FCNTL"]

#: fallback spin lock: a lock file older than this is considered stale.
_STALE_S = 300.0
#: polling interval while waiting for the lock.
_POLL_S = 0.01


class FileLock:
    """An advisory, reentrant-per-instance cross-process file lock.

    Usable as a context manager::

        with FileLock(root / ".lock") as lock:
            if lock.held:        # False if acquisition timed out
                ...exclusive...

    ``__enter__`` never raises on contention: after ``timeout`` seconds
    the context body runs with ``held == False`` and the caller decides
    whether the unlocked path is acceptable (the cache treats it as
    best-effort degradation and counts ``cache.lock_timeouts``).
    """

    __slots__ = ("path", "timeout", "_fd", "_depth", "held")

    def __init__(self, path: str | os.PathLike, timeout: float = 10.0):
        self.path = pathlib.Path(path)
        self.timeout = timeout
        self._fd: int | None = None
        self._depth = 0
        self.held = False

    # -- acquisition ---------------------------------------------------------
    def acquire(self, timeout: float | None = None) -> bool:
        """Try to take the lock; ``True`` on success within ``timeout``."""
        if self._depth:
            self._depth += 1
            return self.held
        timeout = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            self._depth = 1
            self.held = False
            return False
        acquired = (
            self._acquire_flock(deadline)
            if HAVE_FCNTL
            else self._acquire_excl(deadline)
        )
        self._depth = 1
        self.held = acquired
        if not acquired:
            obs.count("cache.lock_timeouts")
        return acquired

    def _acquire_flock(self, deadline: float) -> bool:
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            return False
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                self._fd = fd
                return True
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    return False
                time.sleep(_POLL_S)

    def _acquire_excl(self, deadline: float) -> bool:  # pragma: no cover
        # Portable fallback: exclusive-create a marker file, treat ancient
        # markers (crashed holders) as stale.
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR)
                self._fd = fd
                return True
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                    if age > _STALE_S:
                        self.path.unlink()
                        continue
                except OSError:
                    pass
                if time.monotonic() >= deadline:
                    return False
                time.sleep(_POLL_S)
            except OSError:
                return False

    # -- release -------------------------------------------------------------
    def release(self) -> None:
        if self._depth > 1:
            self._depth -= 1
            return
        self._depth = 0
        fd, self._fd = self._fd, None
        held, self.held = self.held, False
        if fd is None:
            return
        try:
            if HAVE_FCNTL:
                fcntl.flock(fd, fcntl.LOCK_UN)
            elif held:  # pragma: no cover - exclusive-create fallback
                try:
                    self.path.unlink()
                except OSError:
                    pass
        finally:
            try:
                os.close(fd)
            except OSError:
                pass

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()
        return None

    def __repr__(self) -> str:
        state = "held" if self.held else "free"
        return f"FileLock({str(self.path)!r}, {state})"
