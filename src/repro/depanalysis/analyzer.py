"""Top-level dependence-analysis entry point.

:func:`analyze` dispatches between two independent implementations:

* ``method="exact"`` -- the classical Diophantine-plus-verification analyzer
  (:mod:`repro.depanalysis.exact`); this is the baseline whose cost the
  paper's compositional method avoids.  By default it is answered by the
  symbolic closed form of the same pair systems, instantiated at the
  binding (:mod:`repro.depanalysis.engine`); ``backend="scalar"`` runs the
  Diophantine analyzer itself.
* ``method="enumerate"`` -- a hash-join oracle that walks the iteration space
  once, records every element written, and joins reads against it.  For the
  single-assignment programs of the paper this is exact, fast, and serves as
  an independent cross-check of the exact analyzer (two implementations must
  agree instance-for-instance).
"""

from __future__ import annotations

from repro import obs
from repro.depanalysis.pairs import AnalysisResult, DependenceInstance
from repro.ir.program import LoopNest
from repro.structures.params import ParamBinding

__all__ = ["analyze", "analyze_enumerate"]


def analyze_enumerate(program: LoopNest, binding: ParamBinding) -> AnalysisResult:
    """Hash-join dependence analysis (exact for single-assignment programs).

    Pass 1 records, for every array element, the iteration that writes it
    (verifying single assignment on the way).  Pass 2 joins every guarded
    read against that table; each hit with a distinct writer iteration is a
    flow-dependence instance.
    """
    writers: dict[tuple[str, tuple[int, ...]], tuple[int, ...]] = {}
    stats = {"points_visited": 0, "reads_joined": 0, "instances": 0}
    instances: set[DependenceInstance] = set()
    with obs.span("depanalysis.analyze_enumerate"):
        for point in program.index_set.points(binding):
            stats["points_visited"] += 1
            env = program.point_env(point)
            for stmt in program.statements:
                if not stmt.active_at(point, binding):
                    continue
                elem = stmt.write.element(env, binding)
                prev = writers.get(elem)
                if prev is not None and prev != point:
                    raise ValueError(
                        f"program is not single-assignment: {elem} written at "
                        f"both {prev} and {point}"
                    )
                writers[elem] = point

        for point in program.index_set.points(binding):
            env = program.point_env(point)
            for stmt in program.statements:
                if not stmt.active_at(point, binding):
                    continue
                for acc in stmt.reads:
                    stats["reads_joined"] += 1
                    elem = acc.element(env, binding)
                    src = writers.get(elem)
                    if src is None or src == point:
                        continue
                    vec = tuple(s - t for s, t in zip(point, src))
                    kind = "flow"
                    for x in vec:
                        if x > 0:
                            break
                        if x < 0:
                            kind = "reversed"
                            break
                    instances.add(DependenceInstance(point, vec, acc.array, kind))
    stats["instances"] = len(instances)
    obs.count_many(stats, prefix="depanalysis.")
    return AnalysisResult.from_instances(instances, stats)


def analyze(
    program: LoopNest,
    binding: ParamBinding,
    method: str = "exact",
    use_screens: bool = True,
    config: "AnalysisConfig | None" = None,
) -> AnalysisResult:
    """Analyze a program instance for cross-iteration flow dependences.

    Parameters
    ----------
    program:
        The loop nest.
    binding:
        Concrete values for the symbolic parameters in bounds/guards.
    method:
        ``"exact"`` (every dependence the subscript systems admit inside
        the index set) or ``"enumerate"`` (hash-join oracle, always the
        scalar implementation).
    use_screens:
        For ``method="exact"`` on the scalar route: whether to apply
        GCD/Banerjee screening.  The symbolic route has no screens.
    config:
        Engine configuration (:class:`repro.depanalysis.engine.AnalysisConfig`):
        the exact route (``"scalar"`` Diophantine + in-set verification,
        or ``"symbolic"`` closed form instantiated at ``binding``, the
        default) and the persistent artifact cache policy.
        ``None`` uses the environment defaults
        (``REPRO_ANALYSIS_BACKEND`` / ``REPRO_CACHE_DIR``).  Both routes
        return the same ordered instances; ``result.stats`` holds the
        counters of the route that ran.
    """
    from repro.depanalysis.engine import run_analysis

    return run_analysis(
        program, binding, method=method, use_screens=use_screens, config=config
    )
