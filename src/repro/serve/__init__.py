"""Analysis-as-a-service: async job front-end over a unified JobSpec API.

One schema, four front doors.  Every analyze / search / simulate /
verify request -- whether it arrives from the CLI, the asyncio HTTP
server, the thin client, or a direct library call -- is a frozen
:class:`~repro.serve.jobs.JobSpec` dispatched through
:func:`~repro.serve.dispatch.run_job`, and every answer is a
:class:`~repro.serve.jobs.JobResult` whose ``output`` is byte-identical
to the equivalent CLI run.

Layers (each importable on its own):

- :mod:`repro.serve.jobs` -- the frozen JobSpec/JobResult schema,
  content-addressed :func:`~repro.serve.jobs.job_key`, and
  :class:`~repro.serve.jobs.JobLimits` admission control;
- :mod:`repro.serve.dispatch` -- the synchronous executor
  :func:`~repro.serve.dispatch.run_job`, shared by the CLI and the
  server;
- :mod:`repro.serve.server` -- the stdlib-asyncio HTTP server with
  content-keyed job ids, request coalescing, one execution per job, and
  wall-clock budgets;
- :mod:`repro.serve.client` -- the stdlib ``http.client`` thin client.

See ``docs/SERVE.md`` for the protocol walkthrough.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.dispatch import run_job
from repro.serve.jobs import (
    JOB_KINDS,
    JOB_SCHEMA_VERSION,
    JobLimits,
    JobResult,
    JobSpec,
    check_limits,
    estimate_points,
    job_key,
)
from repro.serve.server import JobServer, ServerConfig, ServerThread

__all__ = [
    "JOB_KINDS",
    "JOB_SCHEMA_VERSION",
    "JobLimits",
    "JobResult",
    "JobServer",
    "JobSpec",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "ServerThread",
    "check_limits",
    "estimate_points",
    "job_key",
    "run_job",
]
