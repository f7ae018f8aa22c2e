"""Dependence-analysis entry point: two routes and the artifact cache.

Exact analysis has two implementations, selected by backend:

* ``scalar`` -- the reference: :func:`repro.depanalysis.exact.analyze_exact`
  (GCD/Banerjee screens, Diophantine solve, in-box verification of every
  lattice candidate);
* ``symbolic`` (the default) -- the closed form: the symbolic
  pair loop (:func:`repro.symbolic.analyze.solve_program`) runs on the
  program and its result is instantiated at the binding.  A program
  outside the symbolic layer's support (``SymbolicUnsupported``) falls
  back to the scalar analyzer and counts
  ``depanalysis.symbolic_fallbacks``.

``method="enumerate"`` always runs the scalar hash-join
(:func:`repro.depanalysis.analyzer.analyze_enumerate`), whatever the
backend.  Both routes return the same ordered instance list;
``AnalysisResult.stats`` holds the counters of the route that ran, of
which only ``pairs_tested`` and ``instances`` are shared.

:func:`run_analysis` is the engine entry point: it resolves the backend
(``REPRO_ANALYSIS_BACKEND`` env, else symbolic) and consults the
persistent artifact cache (:mod:`repro.cache`) keyed by the canonicalized
program instance and the backend, so repeated pipeline/verify/experiment
runs skip re-analysis entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro import obs
from repro.cache import (
    Uncacheable,
    analysis_key,
    analysis_result_from_payload,
    analysis_result_to_payload,
    resolve_cache,
)
from repro.depanalysis.exact import analyze_exact
from repro.depanalysis.pairs import AnalysisResult
from repro.ir.program import LoopNest
from repro.structures.params import ParamBinding

__all__ = [
    "AnalysisConfig",
    "BACKENDS",
    "SHARED_STATS",
    "resolve_backend",
    "run_analysis",
]

BACKENDS = ("scalar", "symbolic")

#: the ``AnalysisResult.stats`` keys both exact routes report identically
SHARED_STATS = ("pairs_tested", "instances")


@dataclass(frozen=True)
class AnalysisConfig:
    """How :func:`run_analysis` should execute.

    ``backend=None`` defers to ``$REPRO_ANALYSIS_BACKEND`` (default
    ``"symbolic"``); any other value must be one of :data:`BACKENDS`.
    ``cache=None`` enables the persistent artifact cache iff
    ``cache_dir`` is given or ``$REPRO_CACHE_DIR`` is set;
    ``True``/``False`` force it.
    """

    backend: str | None = None
    cache: bool | None = None
    cache_dir: str | os.PathLike | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            resolve_backend(self.backend)


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend request to a concrete route name.

    ``None`` consults ``$REPRO_ANALYSIS_BACKEND``, else ``"symbolic"``.
    """
    if name is None:
        name = os.environ.get("REPRO_ANALYSIS_BACKEND") or "symbolic"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown analysis backend {name!r}; choose from {BACKENDS}"
        )
    return name


# ---------------------------------------------------------------------------
# Engine entry point
# ---------------------------------------------------------------------------

def _analyze_exact_symbolic(
    program: LoopNest, binding: ParamBinding, use_screens: bool
) -> AnalysisResult:
    """The ``symbolic`` exact route: solve the pair systems in closed
    form, then instantiate the families at ``binding``.

    Nothing is memoized (see :func:`repro.symbolic.analyze.solve_program`).
    A program outside the symbolic layer's support runs the scalar
    analyzer instead, with the caller's ``use_screens``.
    """
    from repro.symbolic.analyze import solve_program
    from repro.symbolic.solve import SymbolicUnsupported

    try:
        with obs.span(
            "depanalysis.analyze_exact",
            statements=len(program.statements),
            backend="symbolic",
        ):
            result = solve_program(program).instantiate(binding)
    except SymbolicUnsupported:
        obs.count("depanalysis.symbolic_fallbacks")
        return analyze_exact(program, binding, use_screens=use_screens)
    obs.count_many(result.stats, prefix="depanalysis.")
    return result


def run_analysis(
    program: LoopNest,
    binding: ParamBinding,
    method: str = "exact",
    use_screens: bool = True,
    config: AnalysisConfig | None = None,
) -> AnalysisResult:
    """Analyze through the configured backend and the persistent cache.

    The cache key covers the canonicalized program instance, the method,
    the screen setting and the backend, so each backend reads back its
    own entry with its own ``stats``.  A hit returns the stored result;
    a miss computes it, stores it, and counts one
    ``analysis.engine_calls`` -- the counter the ``repro.serve``
    coalescing guarantee is stated in.  The store counts its hits, misses
    and writes as ``cache.*`` obs counters; it writes nothing else.
    """
    if method not in ("exact", "enumerate"):
        raise ValueError(f"unknown analysis method {method!r}")
    if config is None:
        config = AnalysisConfig()
    backend = resolve_backend(config.backend)
    store = resolve_cache(config.cache, config.cache_dir)

    result = None
    key = None
    if store is not None:
        try:
            key = analysis_key(program, binding, method, use_screens, backend)
        except Uncacheable:
            pass  # no canonical key: compute without the cache
        payload = None if key is None else store.get("analysis", key)
        if payload is not None:
            try:
                result = analysis_result_from_payload(payload)
            except (KeyError, TypeError, ValueError):
                pass  # malformed entry: recompute (and overwrite)
    if result is None:
        from repro.depanalysis.analyzer import analyze_enumerate

        obs.count("analysis.engine_calls")
        if method == "enumerate":
            result = analyze_enumerate(program, binding)
        elif backend == "symbolic":
            result = _analyze_exact_symbolic(program, binding, use_screens)
        else:
            result = analyze_exact(program, binding, use_screens=use_screens)
        if key is not None:
            store.put("analysis", key, analysis_result_to_payload(result))
    return result
