"""Analysis-as-a-service: the asyncio HTTP front-end.

A single-process async server over the shared job dispatch
(:mod:`repro.serve.dispatch`).  The event loop owns admission, queueing
and coalescing; the jobs themselves run on worker threads (the engines
are CPU-bound sync code), one spec per execution and one execution at a
time, so the per-job obs registry install is race-free and each job's
metrics, timing and budget are its own.  Scale-out is by process: any
number of servers and CLI runs may share one ``$REPRO_CACHE_DIR``, whose
store serializes eviction under a file lock (:mod:`repro.cache.store`).

Endpoints (all JSON; ``Connection: close`` per request):

=====================================  ====================================
``GET  /v1/health``                    liveness + version
``GET  /v1/stats``                     server counters, the sum of every
                                       counter the jobs reported, queue
                                       depths
``POST /v1/jobs``                      body = ``JobSpec`` payload; returns
                                       ``{"job_id", "coalesced", "status"}``
``GET  /v1/jobs/<id>[?wait=S]``        status envelope; ``wait`` long-polls
                                       up to ``S`` seconds for completion
=====================================  ====================================

**Job ids.**  A job's id is its content key, :func:`~repro.serve.jobs.job_key`
of its spec.  The server holds only the executions that are queued or
running and the last ``_RESULT_CACHE_SIZE`` completed ones; an id found
in neither gets a 404 saying so.

**Coalescing.**  A spec equal to one that is queued or running attaches
to that execution (the same id, same result object); a spec equal to one
of the last ``_RESULT_CACHE_SIZE`` completed jobs is answered from the
retained result, unless that result is a timeout: a timeout depends on
the load, not on the spec, so the spec runs again under the same id.
N identical concurrent analyze requests therefore produce exactly one
engine invocation (``analysis.engine_calls``) and N byte-identical
results.

**Budgets.**  :class:`~repro.serve.jobs.JobLimits` refuses oversized
jobs up front (structured ``status="error"``); a running job that
exceeds its wall-clock budget gets a structured ``status="timeout"``
result, its worker thread is orphaned (recorded, never joined), and
subsequent jobs run uninstrumented until the orphan drains so its late
obs writes cannot pollute another job's registry.
"""

from __future__ import annotations

import asyncio
import collections
import json
import threading
import urllib.parse

from repro import obs
from repro.serve import dispatch
from repro.serve.jobs import JobLimits, JobResult, JobSpec, job_key

__all__ = ["JobServer", "ServerConfig", "ServerThread"]

_MAX_BODY = 1 << 20  # 1 MiB request cap
_RESULT_CACHE_SIZE = 256  # completed executions retained

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServerConfig:
    """Front-end knobs (host/port, admission limits)."""

    __slots__ = ("host", "port", "limits")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: JobLimits | None = JobLimits(),
    ):
        self.host = host
        self.port = port
        self.limits = limits


class _Execution:
    """One scheduled job; shared by every submission of its spec."""

    __slots__ = ("spec", "key", "status", "result", "done")

    def __init__(self, spec: JobSpec, key: str):
        self.spec = spec
        self.key = key
        self.status = "queued"  # queued | running | done
        self.result: JobResult | None = None
        self.done = asyncio.Event()


class JobServer:
    """The asyncio job server; create, ``await start()``, serve."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        self.host = self.config.host
        self.port = self.config.port
        self.counters: collections.Counter = collections.Counter()
        self._inflight: dict[str, _Execution] = {}
        self._results: collections.OrderedDict[str, _Execution] = (
            collections.OrderedDict()
        )
        self._queue: asyncio.Queue | None = None
        self._orphans: list[threading.Event] = []
        self._server: asyncio.base_events.Server | None = None
        self._worker: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "JobServer":
        self._queue = asyncio.Queue()
        self._worker = asyncio.get_running_loop().create_task(
            self._worker_loop()
        )
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._worker is not None:
            self._queue.put_nowait(None)
            try:
                await asyncio.wait_for(self._worker, timeout=5)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._worker.cancel()

    # -- submission / coalescing ---------------------------------------------
    def submit(self, spec: JobSpec) -> tuple[_Execution, bool]:
        """Coalesce-or-enqueue one spec (returns ``coalesced`` flag)."""
        key = job_key(spec)
        self.counters["serve.jobs_submitted"] += 1
        execution = self._lookup(key)
        if execution is not None:
            result = execution.result
            if result is None or result.status != "timeout":
                self.counters["serve.jobs_coalesced"] += 1
                return execution, True
            # A timeout depends on the load, not on the spec: run it again.
            del self._results[key]
        execution = _Execution(spec, key)
        self._inflight[key] = execution
        self._queue.put_nowait(execution)
        return execution, False

    def _lookup(self, key: str) -> _Execution | None:
        return self._inflight.get(key) or self._results.get(key)

    # -- the worker ----------------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            execution = await self._queue.get()
            if execution is None:
                return
            try:
                await self._run_execution(execution)
            except Exception as exc:  # defensive: never kill the worker
                if execution.status != "done":
                    self._finish(
                        execution,
                        JobResult(
                            kind=execution.spec.kind, status="error",
                            exit_code=3, error=repr(exc),
                        ),
                    )

    async def _run_execution(self, execution: _Execution) -> None:
        loop = asyncio.get_running_loop()
        execution.status = "running"
        self._orphans = [f for f in self._orphans if not f.is_set()]
        registry = None if self._orphans else obs.Registry()
        spec = execution.spec
        limits = self.config.limits
        budget = None if limits is None else limits.effective_budget(spec)
        done_flag = threading.Event()

        def work():
            try:
                return dispatch.run_job(spec, registry=registry, limits=limits)
            finally:
                done_flag.set()

        future = loop.run_in_executor(None, work)
        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), timeout=budget
            )
        except asyncio.TimeoutError:
            # The thread is orphaned, never joined; its eventual result is
            # discarded and jobs run uninstrumented until it drains.
            self._orphans.append(done_flag)
            future.add_done_callback(lambda f: f.exception())
            self.counters["serve.jobs_timed_out"] += 1
            result = JobResult(
                kind=spec.kind, status="timeout", exit_code=4,
                error=(
                    f"budget: job exceeded its wall-clock budget of {budget}s"
                ),
            )
        self.counters["serve.executions"] += 1
        if result.metrics:
            self.counters.update(result.metrics.get("counters", {}))
        self._finish(execution, result)

    def _finish(self, execution: _Execution, result: JobResult) -> None:
        execution.result = result
        execution.status = "done"
        self._inflight.pop(execution.key, None)
        self._results[execution.key] = execution
        while len(self._results) > _RESULT_CACHE_SIZE:
            self._results.popitem(last=False)
        execution.done.set()

    # -- HTTP ----------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            request = await reader.readline()
            if not request:
                return
            try:
                method, target, _version = request.decode("ascii").split()
            except ValueError:
                self._respond(writer, 400, {"error": "malformed request line"})
                return
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            raw_length = headers.get("content-length", "0")
            if not (raw_length.isascii() and raw_length.isdigit()):
                self._respond(writer, 400, {
                    "error": f"malformed Content-Length: {raw_length!r}"
                })
                return
            length = int(raw_length)
            if length > _MAX_BODY:
                self._respond(writer, 413, {"error": "request body too large"})
                return
            body = await reader.readexactly(length) if length else b""
            await self._route(method, target, body, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except Exception as exc:  # defensive: one request, one error reply
            try:
                self._respond(writer, 500, {"error": repr(exc)})
            except Exception:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, method, target, body, writer) -> None:
        parsed = urllib.parse.urlsplit(target)
        path = parsed.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(parsed.query)
        if path == "/v1/health":
            if method != "GET":
                self._respond(writer, 405, {"error": "GET only"})
                return
            from repro import __version__

            self._respond(writer, 200, {"ok": True, "version": __version__})
            return
        if path == "/v1/stats":
            if method != "GET":
                self._respond(writer, 405, {"error": "GET only"})
                return
            self._respond(writer, 200, self._stats())
            return
        if path == "/v1/jobs" and method == "POST":
            self._handle_submit(body, writer)
            return
        head, _, job_id = path.rpartition("/")
        if head == "/v1/jobs":
            if method != "GET":
                self._respond(writer, 405, {"error": "GET only"})
                return
            execution = self._lookup(job_id)
            if execution is None:
                self._respond(writer, 404, {"error": (
                    f"job {job_id} is not queued, not running and not "
                    f"among the last {_RESULT_CACHE_SIZE} results"
                )})
                return
            wait_s = None
            if "wait" in query:
                try:
                    wait_s = min(60.0, max(0.0, float(query["wait"][0])))
                except ValueError:
                    wait_s = None
            if wait_s and execution.status != "done":
                try:
                    await asyncio.wait_for(
                        execution.done.wait(), timeout=wait_s
                    )
                except asyncio.TimeoutError:
                    pass
            self._respond(writer, 200, self._envelope(execution))
            return
        self._respond(writer, 404, {"error": f"no route {method} {path}"})

    def _handle_submit(self, body, writer) -> None:
        try:
            spec = JobSpec.from_payload(json.loads(body.decode("utf-8")))
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        execution, coalesced = self.submit(spec)
        self._respond(writer, 202, {
            "job_id": execution.key,
            "coalesced": coalesced,
            "status": execution.status,
        })

    def _envelope(self, execution: _Execution) -> dict:
        envelope = {
            "job_id": execution.key,
            "status": execution.status,
            "kind": execution.spec.kind,
        }
        if execution.result is not None:
            envelope["result"] = execution.result.to_payload()
        return envelope

    def _stats(self) -> dict:
        return {
            "server": dict(sorted(self.counters.items())),
            "inflight": len(self._inflight),
            "queued": self._queue.qsize() if self._queue is not None else 0,
            "results_retained": len(self._results),
            "orphaned_workers": len(
                [f for f in self._orphans if not f.is_set()]
            ),
        }

    def _respond(self, writer, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)


class ServerThread:
    """Run a :class:`JobServer` on a background event-loop thread.

    The embedding used by the test suite, the CI smoke script, and any
    synchronous program that wants an in-process server::

        with ServerThread() as server:
            client = ServeClient(port=server.port)
            ...

    """

    def __init__(self, config: ServerConfig | None = None):
        self.server = JobServer(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("serve: server thread failed to start")
        if self._error is not None:
            raise RuntimeError(f"serve: startup failed: {self._error!r}")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._error is not None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        try:
            future.result(timeout=10)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
        return None
