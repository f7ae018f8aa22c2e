"""Thin synchronous client for the repro job server.

Stdlib-only (``http.client``), one connection per call, no retry magic:
the client is deliberately dumb so that everything interesting --
coalescing, budgets, job retention -- lives server-side and is shared by
every front-end.  The CLI's ``--server`` mode and the CI
smoke test are both just this class.  A :class:`JobSpec` resolves its
backends when it is built, so a served job takes the routes the
client's environment picks and prints what the same job prints
in-process.

Typical use::

    from repro.serve import JobSpec, ServeClient

    client = ServeClient(port=8741)
    result = client.run(JobSpec(kind="analyze", u=3, p=3))
    print(result.output, end="")
"""

from __future__ import annotations

import http.client
import json
from typing import Iterable

from repro.serve.jobs import JobResult, JobSpec

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A non-2xx reply from the job server."""

    def __init__(self, status: int, message: str):
        super().__init__(f"server returned {status}: {message}")
        self.status = status


class ServeClient:
    """Talk JobSpec/JobResult to a :class:`~repro.serve.server.JobServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8741,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------------
    def _request(self, method: str, path: str, payload=None) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                decoded = {"error": raw.decode("utf-8", "replace")}
            if response.status >= 400:
                raise ServeError(
                    response.status, str(decoded.get("error", decoded))
                )
            return decoded
        finally:
            conn.close()

    # -- endpoints -----------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit(self, spec: JobSpec) -> dict:
        """Enqueue one job; returns ``{"job_id", "coalesced", "status"}``."""
        return self._request("POST", "/v1/jobs", spec.to_payload())

    def status(self, job_id: str, wait: float | None = None) -> dict:
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self._request("GET", path)

    def wait(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until ``job_id`` finishes; long-polls in 30 s slices."""
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            slice_s = 30.0
            if deadline is not None:
                slice_s = min(slice_s, max(0.0, deadline - time.monotonic()))
            envelope = self.status(job_id, wait=slice_s)
            if envelope.get("status") == "done":
                return JobResult.from_payload(envelope["result"])
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {envelope.get('status')!r} after "
                    f"{timeout}s"
                )

    # -- conveniences --------------------------------------------------------
    def run(self, spec: JobSpec, timeout: float | None = None) -> JobResult:
        """Submit one job and wait for its result."""
        return self.wait(self.submit(spec)["job_id"], timeout=timeout)

    def run_many(
        self, specs: Iterable[JobSpec], timeout: float | None = None
    ) -> list[JobResult]:
        """Run each spec to completion, in order.

        The server runs one execution at a time, so submitting ahead
        gains nothing, and each result is read before the next is due.
        """
        return [self.run(spec, timeout=timeout) for spec in specs]
