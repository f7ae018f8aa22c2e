"""Persistent cross-run artifact cache.

Content-addressed, on-disk memoization for the expensive pure derivations
of the pipeline: dependence-analysis results and symbolic closed forms.
Keys are SHA-256 fingerprints of canonicalized inputs
(:mod:`repro.cache.keys`), values are exact JSON serializations
(:mod:`repro.cache.serde`), and the store
(:class:`repro.cache.store.ArtifactCache`) lives under
``$REPRO_CACHE_DIR`` or ``~/.cache/repro`` with a versioned schema and an
LRU byte cap.

Caching is opt-in: library calls default to "enabled iff
``REPRO_CACHE_DIR`` is set"; the CLI's ``analyze`` subcommand enables it
by default (``--no-cache`` opts out) and ``repro cache stats|clear``
inspects the store's entries.  What the cache did for a run -- its hits,
misses and writes -- is in the run's ``cache.*`` obs counters and nowhere
else.  See ``docs/ANALYSIS.md``.
"""

from repro.cache.keys import (
    Uncacheable,
    analysis_key,
    fingerprint,
    symbolic_key,
)
from repro.cache.serde import (
    Unserializable,
    analysis_result_from_payload,
    analysis_result_to_payload,
    condition_from_payload,
    condition_to_payload,
)
from repro.cache.lock import FileLock
from repro.cache.store import (
    ENV_DIR,
    SCHEMA_VERSION,
    ArtifactCache,
    default_cache_root,
    resolve_cache,
)

__all__ = [
    "ENV_DIR",
    "SCHEMA_VERSION",
    "ArtifactCache",
    "FileLock",
    "Uncacheable",
    "Unserializable",
    "analysis_key",
    "analysis_result_from_payload",
    "analysis_result_to_payload",
    "condition_from_payload",
    "condition_to_payload",
    "default_cache_root",
    "fingerprint",
    "resolve_cache",
    "symbolic_key",
]
