"""Analysis-as-a-service: the asyncio HTTP front-end.

A single-process async server over the shared job dispatch
(:mod:`repro.serve.dispatch`).  The event loop owns admission, queueing,
coalescing, batching, and streaming; the jobs themselves run on worker
threads (the engines are CPU-bound sync code), one execution at a time,
so the per-job obs registry install is race-free.  Scale-out is by
process: any number of servers and CLI runs may share one
``$REPRO_CACHE_DIR`` thanks to the store's shared mode
(:mod:`repro.cache.store`).

Endpoints (all JSON; ``Connection: close`` per request):

=====================================  ====================================
``GET  /v1/health``                    liveness + version
``GET  /v1/stats``                     server counters, aggregated engine
                                       counters, queue depths
``POST /v1/jobs``                      body = ``JobSpec`` payload; returns
                                       ``{"job_id", "key", "coalesced"}``
``POST /v1/batch``                     body = ``{"specs": [...]}``;
                                       compatible analyze jobs are grouped
                                       into one vectorized-engine call
``GET  /v1/jobs/<id>[?wait=S]``        status envelope; ``wait`` long-polls
                                       up to ``S`` seconds for completion
``GET  /v1/jobs/<id>/events``          chunked NDJSON stream of the job's
                                       obs bus events (history + live),
                                       closed by a ``job_done`` record
=====================================  ====================================

**Coalescing.**  Submissions are content-addressed by
:func:`~repro.serve.jobs.job_key`.  A spec equal to one that is queued or
running attaches to that execution (new job id, same result object); a
spec equal to one of the last ``result_cache_size`` completed jobs is
answered from the retained result.  N identical concurrent analyze
requests therefore produce exactly one engine invocation
(``analysis.engine_calls``) and N byte-identical results.

**Batching.**  Distinct analyze specs with equal engine knobs
(method/screens/backend/cache policy/budget) that are queued together --
explicitly via ``/v1/batch``, or opportunistically when the worker
drains its queue -- execute as one
:func:`repro.depanalysis.engine.run_analysis_batch` call sharing a
single Diophantine memo and cache store.

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
import itertools
import json
import threading
import urllib.parse

from repro import obs
from repro.serve import dispatch
from repro.serve.jobs import JobLimits, JobResult, JobSpec, job_key

__all__ = ["JobServer", "ServerConfig", "ServerThread"]

_MAX_BODY = 1 << 20  # 1 MiB request cap

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServerConfig:
    """Front-end knobs (host/port, admission limits, batch/retention caps)."""

    __slots__ = (
        "host", "port", "limits", "max_batch", "result_cache_size",
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: JobLimits | None = JobLimits(),
        max_batch: int = 16,
        result_cache_size: int = 256,
    ):
        self.host = host
        self.port = port
        self.limits = limits
        self.max_batch = max_batch
        self.result_cache_size = result_cache_size


class _Execution:
    """One scheduled computation; possibly shared by many job ids."""

    __slots__ = ("spec", "key", "status", "result", "done", "events",
                 "subscribers")

    def __init__(self, spec: JobSpec, key: str):
        self.spec = spec
        self.key = key
        self.status = "queued"  # queued | running | done
        self.result: JobResult | None = None
        self.done = asyncio.Event()
        self.events: list[dict] = []
        self.subscribers: list[asyncio.Queue] = []


def _batch_compat_key(spec: JobSpec):
    """Specs with equal keys may share one engine batch call."""
    return (
        spec.kind, spec.method, spec.use_screens, spec.analysis_backend,
        spec.cache, spec.cache_dir, spec.budget_s,
    )


def loop_sink(loop: asyncio.AbstractEventLoop, fn) -> obs.CallbackSink:
    """An obs sink that hands each event to ``fn`` on ``loop``'s thread.

    Events arriving after the loop has closed are dropped: a
    budget-orphaned worker can outlive the server, and its registry stays
    installed process-wide until it finishes, so any thread may emit into
    this sink late.  Raising there would fail an unrelated job.
    """

    def post(event: dict) -> None:
        try:
            loop.call_soon_threadsafe(fn, event)
        except RuntimeError:  # the loop is closed; nobody is listening
            pass

    return obs.CallbackSink(post)


class JobServer:
    """The asyncio job server; create, ``await start()``, serve."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        self.host = self.config.host
        self.port = self.config.port
        self.counters: collections.Counter = collections.Counter()
        self._jobs: dict[str, _Execution] = {}
        self._inflight: dict[str, _Execution] = {}
        self._results: collections.OrderedDict[str, _Execution] = (
            collections.OrderedDict()
        )
        self._queue: asyncio.Queue | None = None
        self._orphans: list[threading.Event] = []
        self._ids = itertools.count(1)
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
    def _new_job_id(self, execution: _Execution) -> str:
        job_id = f"j{next(self._ids):06d}"
        self._jobs[job_id] = execution
        return job_id

    def _submit(self, spec: JobSpec) -> tuple[str, _Execution, bool]:
        """Coalesce-or-enqueue one spec (returns ``coalesced`` flag)."""
        key = job_key(spec)
        self.counters["serve.jobs_submitted"] += 1
        execution = self._inflight.get(key) or self._results.get(key)
        if execution is not None:
            self.counters["serve.jobs_coalesced"] += 1
            return self._new_job_id(execution), execution, True
        execution = _Execution(spec, key)
        self._inflight[key] = execution
        return self._new_job_id(execution), execution, False

    def _enqueue(self, group: list[_Execution]) -> None:
        self._queue.put_nowait(group)

    def submit(self, spec: JobSpec) -> tuple[str, _Execution, bool]:
        job_id, execution, coalesced = self._submit(spec)
        if not coalesced:
            self._enqueue([execution])
        return job_id, execution, coalesced

    def submit_batch(self, specs) -> list[tuple[str, _Execution, bool]]:
        """Submit several specs, pre-grouping compatible analyze jobs."""
        out = []
        groups: dict = {}
        order: list[list[_Execution]] = []
        for spec in specs:
            job_id, execution, coalesced = self._submit(spec)
            out.append((job_id, execution, coalesced))
            if coalesced:
                continue
            if spec.kind == "analyze":
                bucket = groups.get(_batch_compat_key(spec))
                if bucket is not None and len(bucket) < self.config.max_batch:
                    bucket.append(execution)
                    continue
                bucket = [execution]
                groups[_batch_compat_key(spec)] = bucket
                order.append(bucket)
            else:
                order.append([execution])
        for group in order:
            self._enqueue(group)
        return out

    # -- the worker ----------------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            group = await self._queue.get()
            if group is None:
                return
            group = self._merge_compatible(group)
            try:
                await self._run_group(group)
            except Exception as exc:  # defensive: never kill the worker
                for execution in group:
                    if execution.status != "done":
                        self._finish(
                            execution,
                            JobResult(
                                kind=execution.spec.kind, status="error",
                                exit_code=3, error=repr(exc),
                            ),
                        )

    def _merge_compatible(self, group: list[_Execution]) -> list[_Execution]:
        """Opportunistic batching: fold queued compatible analyze jobs in."""
        if group[0].spec.kind != "analyze":
            return group
        compat = _batch_compat_key(group[0].spec)
        holdback = []
        while len(group) < self.config.max_batch:
            try:
                other = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if other is None:
                holdback.append(other)
                break
            if (
                len(other) == 1
                and other[0].spec.kind == "analyze"
                and _batch_compat_key(other[0].spec) == compat
            ):
                group = group + other
            else:
                holdback.append(other)
        for item in holdback:
            self._queue.put_nowait(item)
        return group

    async def _run_group(self, group: list[_Execution]) -> None:
        loop = asyncio.get_running_loop()
        for execution in group:
            execution.status = "running"
        self._orphans = [f for f in self._orphans if not f.is_set()]
        registry = None
        if not self._orphans:
            registry = obs.Registry()
            registry.add_sink(
                loop_sink(loop, lambda event: self._fanout(group, event))
            )
        specs = [execution.spec for execution in group]
        limits = self.config.limits
        budget = None if limits is None else limits.effective_budget(specs[0])
        done_flag = threading.Event()

        def work():
            try:
                if len(specs) > 1:
                    return dispatch.run_analyze_batch(
                        specs, registry=registry, limits=limits
                    )
                return [
                    dispatch.run_job(specs[0], registry=registry,
                                     limits=limits)
                ]
            finally:
                done_flag.set()

        future = loop.run_in_executor(None, work)
        try:
            results = await asyncio.wait_for(
                asyncio.shield(future), timeout=budget
            )
        except asyncio.TimeoutError:
            # The thread is orphaned, never joined; its eventual result is
            # discarded and jobs run uninstrumented until it drains.
            self._orphans.append(done_flag)
            future.add_done_callback(lambda f: f.exception())
            self.counters["serve.jobs_timed_out"] += len(group)
            results = [
                JobResult(
                    kind=spec.kind, status="timeout", exit_code=4,
                    error=(
                        f"budget: job exceeded its wall-clock budget of "
                        f"{budget}s"
                    ),
                )
                for spec in specs
            ]
        self.counters["serve.executions"] += 1
        if len(group) > 1:
            self.counters["serve.batches"] += 1
            self.counters["serve.batched_jobs"] += len(group)
        shared_metrics = results[0].metrics if results else None
        if shared_metrics:
            for name, value in shared_metrics.get("counters", {}).items():
                if name.startswith(("analysis.", "cache.", "depanalysis.")):
                    self.counters[name] += value
        for execution, result in zip(group, results):
            self._finish(execution, result)

    def _finish(self, execution: _Execution, result: JobResult) -> None:
        execution.result = result
        execution.status = "done"
        self._inflight.pop(execution.key, None)
        self._results[execution.key] = execution
        while len(self._results) > self.config.result_cache_size:
            self._results.popitem(last=False)
        execution.done.set()
        self._fanout(
            [execution],
            {"type": "job_done", "status": result.status,
             "exit_code": result.exit_code},
        )

    def _fanout(self, group: list[_Execution], event: dict) -> None:
        for execution in group:
            execution.events.append(event)
            for queue in execution.subscribers:
                queue.put_nowait(event)

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
            length = int(headers.get("content-length", 0) or 0)
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
        if path == "/v1/batch" and method == "POST":
            self._handle_submit_batch(body, writer)
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if method != "GET":
                self._respond(writer, 405, {"error": "GET only"})
                return
            if rest.endswith("/events"):
                job_id = rest[: -len("/events")]
                execution = self._jobs.get(job_id)
                if execution is None:
                    self._respond(writer, 404, {"error": f"no job {job_id}"})
                    return
                await self._stream_events(job_id, execution, writer)
                return
            execution = self._jobs.get(rest)
            if execution is None:
                self._respond(writer, 404, {"error": f"no job {rest}"})
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
            self._respond(writer, 200, self._envelope(rest, execution))
            return
        self._respond(writer, 404, {"error": f"no route {method} {path}"})

    def _parse_spec(self, payload) -> JobSpec:
        return JobSpec.from_payload(payload)

    def _handle_submit(self, body, writer) -> None:
        try:
            spec = self._parse_spec(json.loads(body.decode("utf-8")))
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        job_id, execution, coalesced = self.submit(spec)
        self._respond(writer, 202, {
            "job_id": job_id,
            "key": execution.key,
            "coalesced": coalesced,
            "status": execution.status,
        })

    def _handle_submit_batch(self, body, writer) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
            specs = [self._parse_spec(p) for p in payload["specs"]]
        except (ValueError, TypeError, KeyError, UnicodeDecodeError) as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        submitted = self.submit_batch(specs)
        self._respond(writer, 202, {
            "jobs": [
                {"job_id": job_id, "key": execution.key,
                 "coalesced": coalesced, "status": execution.status}
                for job_id, execution, coalesced in submitted
            ]
        })

    def _envelope(self, job_id: str, execution: _Execution) -> dict:
        envelope = {
            "job_id": job_id,
            "key": execution.key,
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
            "jobs": len(self._jobs),
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

    async def _stream_events(self, job_id, execution, writer) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii"))

        def chunk(obj: dict) -> None:
            data = json.dumps(obj, sort_keys=True, default=str).encode()
            writer.write(
                f"{len(data) + 1:x}\r\n".encode() + data + b"\n\r\n"
            )

        queue: asyncio.Queue = asyncio.Queue()
        live = execution.status != "done"
        if live:
            execution.subscribers.append(queue)
        # Snapshot before any await: events arriving later land in `queue`.
        history = list(execution.events)
        try:
            for event in history:
                chunk(event)
            await writer.drain()
            if live:
                while True:
                    event = await queue.get()
                    chunk(event)
                    await writer.drain()
                    if event.get("type") == "job_done":
                        break
            writer.write(b"0\r\n\r\n")
        finally:
            if live:
                try:
                    execution.subscribers.remove(queue)
                except ValueError:
                    pass


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
