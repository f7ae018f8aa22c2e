"""The unified job schema: one frozen request/response contract.

Every way of asking this library for work -- the CLI subcommands, the
async HTTP front-end (:mod:`repro.serve.server`), the thin client, and
direct library calls through :func:`repro.serve.dispatch.run_job` --
speaks :class:`JobSpec` in and :class:`JobResult` out.  A ``JobSpec``
wraps the existing per-subsystem configuration surfaces
(:class:`~repro.depanalysis.engine.AnalysisConfig`,
:class:`~repro.mapping.engine.SearchConfig`, the simulator/analysis
``backend=`` knobs, :class:`~repro.verify.runner.VerifyConfig`) into a
single flat, frozen, hashable value with an **exact JSON round-trip**:
``JobSpec.from_payload(spec.to_payload()) == spec`` field for field, so
the content address :func:`job_key` is stable across the wire.

A job's output is a function of its spec.  The route a job takes is a
spec field, resolved when the spec is built: ``analysis_backend=None``
on an analyze spec and ``sim_backend=None`` on a simulate spec become
the backend the building process's ``$REPRO_ANALYSIS_BACKEND`` /
``$REPRO_SIM_BACKEND`` picks, so :func:`job_key` names the route and a
served job runs the route its client picked.  A search spec is checked
by building its :meth:`JobSpec.search_config`.  An invalid spec raises
``ValueError`` naming the field (the server's 400).

Job kinds and the fields they read:

================  =======================================================
analyze           ``u p expansion method use_screens analysis_backend
                  cache cache_dir``
analyze_symbolic  ``u p expansion cache cache_dir`` (the parametric
                  analysis is solved once with ``u``/``p`` free, then
                  instantiated at the spec's concrete sizes in O(1))
search            ``u p expansion target_space_dim block schedule_bound
                  max_candidates overcollect primitives strategy
                  frontier``
simulate          ``u p expansion design seed sim_backend gantt``
verify            ``seed cases oracle_budget_s oracles``
================  =======================================================

``budget_s`` applies to every kind: it is the *server-side* wall-clock
budget for the whole job (a job still running when it expires gets a
structured ``status="timeout"`` :class:`JobResult`).  ``oracle_budget_s``
is the verify subsystem's own per-oracle budget and travels inside the
job.  :class:`JobLimits` is the admission-control half: a server rejects
(structured ``status="error"``, never a crash) jobs whose estimated
iteration-space size or case count exceeds its configured ceilings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

from repro.cache.keys import fingerprint

__all__ = [
    "JOB_KINDS",
    "JOB_SCHEMA_VERSION",
    "JobLimits",
    "JobResult",
    "JobSpec",
    "check_limits",
    "estimate_points",
    "job_key",
]

JOB_SCHEMA_VERSION = 1
JOB_KINDS = ("analyze", "analyze_symbolic", "search", "simulate", "verify")

_STATUSES = ("ok", "error", "timeout")


@dataclass(frozen=True)
class JobSpec:
    """One frozen, content-addressable request."""

    kind: str
    # -- shared problem shape (analyze / search / simulate) ------------------
    u: int = 3
    p: int = 3
    expansion: str = "II"
    # -- analyze -------------------------------------------------------------
    method: str = "exact"
    use_screens: bool = True
    analysis_backend: str | None = None
    cache: bool | None = None
    cache_dir: str | None = None
    # -- search --------------------------------------------------------------
    target_space_dim: int = 2
    block: tuple[int, ...] | None = None
    schedule_bound: int = 2
    max_candidates: int | None = 5
    overcollect: int | None = 4
    primitives: str = "fig4"
    strategy: str = "solver"
    frontier: tuple[str, ...] | None = None
    # -- simulate ------------------------------------------------------------
    design: str = "fig4"
    seed: int = 0
    sim_backend: str | None = None
    gantt: bool = False
    # -- verify --------------------------------------------------------------
    cases: int | None = None
    oracle_budget_s: float | None = None
    oracles: tuple[str, ...] | None = None
    # -- budgets (all kinds) ---------------------------------------------------
    budget_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}"
            )
        if self.u < 1 or self.p < 1:
            raise ValueError("u and p must be >= 1")
        if self.expansion not in ("I", "II"):
            raise ValueError(f"unknown expansion {self.expansion!r}")
        if self.method not in ("exact", "enumerate"):
            raise ValueError(f"unknown analysis method {self.method!r}")
        if self.design not in ("fig4", "fig5"):
            raise ValueError(f"unknown design {self.design!r}")
        if self.primitives not in ("fig4", "fig5", "mesh", "none"):
            raise ValueError(f"unknown primitive set {self.primitives!r}")
        if self.cases is not None and self.cases < 1:
            raise ValueError("cases must be >= 1 or None")
        if self.budget_s is not None and self.budget_s <= 0:
            raise ValueError("budget_s must be > 0 or None")
        if self.block is not None:
            object.__setattr__(
                self, "block", tuple(int(b) for b in self.block)
            )
        if self.oracles is not None:
            object.__setattr__(
                self, "oracles", tuple(str(o) for o in self.oracles)
            )
        if self.frontier is not None:
            object.__setattr__(
                self, "frontier", tuple(str(m) for m in self.frontier)
            )
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", str(self.cache_dir))
        # The route is part of the spec: resolve the backend the kind
        # reads (and check any other that is set) in this process.
        if self.kind == "analyze" or self.analysis_backend is not None:
            from repro.depanalysis.engine import resolve_backend

            self._resolve("analysis_backend", resolve_backend)
        if self.kind == "simulate" or self.sim_backend is not None:
            from repro.machine.simulator import resolve_backend

            self._resolve("sim_backend", resolve_backend)
        if self.kind == "search":
            self.search_config()

    def _resolve(self, name: str, resolve) -> None:
        try:
            object.__setattr__(self, name, resolve(getattr(self, name)))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None

    def search_config(self):
        """The :class:`~repro.mapping.engine.SearchConfig` a search job
        runs; raises ``ValueError`` on an invalid bound, strategy or
        frontier."""
        from repro.mapping.engine import SearchConfig

        return SearchConfig(
            target_space_dim=self.target_space_dim,
            block_values=self.block if self.block is not None else (self.p,),
            schedule_bound=self.schedule_bound,
            max_candidates=self.max_candidates,
            overcollect=self.overcollect,
            strategy=self.strategy,
            frontier=self.frontier,
        )

    # -- exact JSON round-trip -----------------------------------------------
    def to_payload(self) -> dict:
        """JSON-ready dict carrying every field, in declaration order."""
        payload: dict = {"schema": JOB_SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "JobSpec":
        """Inverse of :meth:`to_payload`; rejects unknown keys/schemas."""
        if not isinstance(payload, Mapping):
            raise ValueError("job payload must be a JSON object")
        data = dict(payload)
        schema = data.pop("schema", JOB_SCHEMA_VERSION)
        if schema != JOB_SCHEMA_VERSION:
            raise ValueError(f"unsupported job schema version {schema!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown job fields: {', '.join(unknown)}")
        if "kind" not in data:
            raise ValueError("job payload is missing 'kind'")
        return cls(**data)


def job_key(spec: JobSpec) -> str:
    """Content address of a job: SHA-256 of the canonical spec payload.

    Two submissions with equal keys are the *same pure computation* --
    every result-affecting knob, the resolved backends included, is a
    spec field -- which is exactly the license the server's request
    coalescing needs.
    """
    return fingerprint({"job": spec.to_payload()})


@dataclass(frozen=True)
class JobResult:
    """One finished (or refused) job, transport-ready.

    ``output`` is the exact text the equivalent CLI subcommand prints to
    stdout (the CLI *is* this dispatch plus ``sys.stdout.write``), so
    byte-comparing server results against direct CLI runs is meaningful.
    ``data`` carries the kind-specific structured result, ``metrics``
    the flat obs metrics dict when the executor instrumented the run.
    """

    kind: str
    status: str
    exit_code: int
    output: str = ""
    data: Mapping | None = None
    error: str | None = None
    metrics: Mapping | None = None
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown job status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_payload(self) -> dict:
        return {
            "schema": JOB_SCHEMA_VERSION,
            "kind": self.kind,
            "status": self.status,
            "exit_code": self.exit_code,
            "output": self.output,
            "data": None if self.data is None else dict(self.data),
            "error": self.error,
            "metrics": None if self.metrics is None else dict(self.metrics),
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "JobResult":
        if not isinstance(payload, Mapping):
            raise ValueError("result payload must be a JSON object")
        data = dict(payload)
        schema = data.pop("schema", JOB_SCHEMA_VERSION)
        if schema != JOB_SCHEMA_VERSION:
            raise ValueError(f"unsupported result schema version {schema!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown result fields: {', '.join(unknown)}")
        return cls(**data)


# ---------------------------------------------------------------------------
# Admission control: per-job resource budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobLimits:
    """Resource ceilings a server enforces before running a job.

    ``max_points`` bounds the estimated bit-level iteration-space size
    (:func:`estimate_points`), ``max_cases`` the verify case count, and
    ``max_budget_s`` caps (and, when a job asks for nothing, defaults)
    the server-side wall-clock budget.  ``None`` disables a ceiling.
    """

    max_points: int | None = 4_000_000
    max_cases: int | None = 1_000
    max_budget_s: float | None = None

    def effective_budget(self, spec: JobSpec) -> float | None:
        """The wall-clock budget the server applies to ``spec``."""
        if spec.budget_s is None:
            return self.max_budget_s
        if self.max_budget_s is None:
            return spec.budget_s
        return min(spec.budget_s, self.max_budget_s)


def estimate_points(spec: JobSpec) -> int:
    """Rough bit-level iteration-space size of a job's problem instance.

    The expanded matmul nest is 5-dimensional -- three word-level axes of
    extent ``u`` and two bit-level axes of extent ``O(p)`` -- so
    ``u^3 * (2p)^2`` tracks the work of analyze/simulate/search within a
    small constant; verify scales with its case count instead, and a
    symbolic analysis never enumerates the iteration space at all (its
    cost is size-independent), so both are exempt from the points ceiling.
    """
    if spec.kind in ("verify", "analyze_symbolic"):
        return 0
    return spec.u ** 3 * (2 * spec.p) ** 2


def check_limits(spec: JobSpec, limits: JobLimits | None) -> str | None:
    """A structured refusal reason, or ``None`` when the job is admissible."""
    if limits is None:
        return None
    if spec.kind == "verify":
        if limits.max_cases is not None:
            cases = 50 if spec.cases is None else spec.cases
            if cases > limits.max_cases:
                return (
                    f"budget: {cases} verify cases exceed the server limit "
                    f"of {limits.max_cases}"
                )
        return None
    if limits.max_points is not None:
        points = estimate_points(spec)
        if points > limits.max_points:
            return (
                f"budget: estimated {points} iteration points exceed the "
                f"server limit of {limits.max_points}"
            )
    return None
