"""The ``repro serve`` asyncio HTTP service.

One event-loop thread accepts connections and answers the cheap
requests (status polls, cached-result fetches, SSE tailing) directly;
job execution happens on :class:`~repro.serve.jobs.JobManager` worker
threads, which in turn fan grid cells out to the PR-2 sweep process
pool.  The versioned API:

``GET  /v1/healthz``
    Liveness + job/cache counters.
``POST /v1/jobs``
    Submit a job: ``{"grid": {...GridSpec doc...}}`` or
    ``{"trace": "<activity-log CSV>", "label": "..."}``.  Validated,
    size-capped (``max_body``), rate-limited per client; identical
    concurrent submissions coalesce onto one in-flight computation.
``GET  /v1/jobs`` / ``GET /v1/jobs/{id}``
    List jobs / fetch one job document (state, progress, result row
    digests, doctor verdict).
``GET  /v1/jobs/{id}/events``
    Server-sent events: ``job`` state transitions interleaved with the
    ``heartbeat`` records the job's cells stream live (PR-6), then a
    terminal ``end`` event.
``GET  /v1/results/{digest}``
    A cached artifact by content address (a sweep cell's run report or
    a trace analysis), straight from the result cache.

:func:`run_service` is the blocking CLI entry point (SIGINT/SIGTERM
drain jobs back to ``queued`` and exit cleanly);
:class:`BackgroundService` runs the same service on a daemon thread
for tests, the throughput benchmark, and embedding.
"""

from __future__ import annotations

import asyncio
import math
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.heartbeat import HeartbeatFollower
from repro.serve.api import (
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
    split_path,
    sse_event,
    sse_preamble,
)
from repro.serve.index import TERMINAL_STATES
from repro.serve.jobs import JobManager
from repro.serve.ratelimit import RateLimiter
from repro.sweep.cache import ResultCache


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can be told from the command line."""

    host: str = "127.0.0.1"
    port: int = 8177
    state_dir: str = ".repro-serve"
    cache_dir: str = ".repro-sweep-cache"
    #: Worker processes per grid job (run_sweep pool size).
    sweep_jobs: int = 1
    #: Jobs executing concurrently; the rest queue.
    max_concurrent_jobs: int = 2
    #: Per-cell wall-clock budget / retry count (run_sweep semantics).
    timeout: Optional[float] = None
    retries: int = 1
    #: Largest grid expansion a single POST may request.
    max_cells: int = 64
    #: Largest request body in bytes (uploads and specs alike).
    max_body: int = 1_000_000
    #: Sustained submissions/sec per client (<= 0 disables) and burst.
    rate: float = 5.0
    burst: int = 10
    #: SSE tail cadence in seconds.
    poll_interval: float = 0.25
    #: Re-enqueue incomplete jobs from the index at startup.
    resume: bool = True


@dataclass
class _ServeStats:
    """Liveness counters the health endpoint reports."""

    requests: int = 0
    submissions: int = 0
    coalesced: int = 0
    throttled: int = 0
    by_status: Dict[int, int] = field(default_factory=dict)


class CharacterizationService:
    """The HTTP layer; owns a :class:`JobManager` unless one is injected."""

    def __init__(
        self, config: ServiceConfig, manager: Optional[JobManager] = None
    ) -> None:
        self.config = config
        self.manager = manager or JobManager(
            state_dir=config.state_dir,
            cache=ResultCache(config.cache_dir),
            sweep_jobs=config.sweep_jobs,
            max_concurrent_jobs=config.max_concurrent_jobs,
            timeout=config.timeout,
            retries=config.retries,
            max_cells=config.max_cells,
        )
        self.limiter = RateLimiter(config.rate, config.burst)
        self.stats = _ServeStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "asyncio.AbstractServer":
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def stop(self, shutdown_manager: bool = True) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if shutdown_manager:
            # Off-loop: cancelling a sweep joins its worker threads.
            await asyncio.get_event_loop().run_in_executor(
                None, lambda: self.manager.shutdown(wait=False)
            )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else "local"
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body, peer)
                except HttpError as error:
                    self._count(error.status)
                    writer.write(error_response(error, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    streamed = await self._dispatch(request, writer)
                except HttpError as error:
                    self._count(error.status)
                    writer.write(
                        error_response(error, keep_alive=request.keep_alive)
                    )
                    await writer.drain()
                    if not request.keep_alive:
                        break
                    continue
                except Exception as error:  # a handler bug must not kill accept
                    self._count(500)
                    writer.write(
                        json_response(
                            500,
                            {
                                "error": f"{type(error).__name__}: {error}",
                                "status": 500,
                            },
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if streamed or not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _count(self, status: int) -> None:
        self.stats.requests += 1
        self.stats.by_status[status] = self.stats.by_status.get(status, 0) + 1

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; True when the response was an SSE stream
        (the connection is then done)."""
        parts = split_path(request.path)
        keep = request.keep_alive

        def reply(status: int, doc: object) -> bool:
            self._count(status)
            writer.write(json_response(status, doc, keep_alive=keep))
            return False

        if parts == () and request.method == "GET":
            return reply(
                200,
                {
                    "service": "repro-serve",
                    "api": "v1",
                    "endpoints": [
                        "GET /v1/healthz",
                        "POST /v1/jobs",
                        "GET /v1/jobs",
                        "GET /v1/jobs/{id}",
                        "GET /v1/jobs/{id}/events",
                        "GET /v1/results/{digest}",
                    ],
                },
            )
        if parts == ("v1", "healthz") and request.method == "GET":
            return reply(
                200,
                {
                    "status": "ok",
                    "jobs": self.manager.index.counts(),
                    "cache": self.manager.cache.stats(),
                    "requests": self.stats.requests,
                    "submissions": self.stats.submissions,
                    "coalesced": self.stats.coalesced,
                    "throttled": self.stats.throttled,
                },
            )
        if parts == ("v1", "jobs"):
            if request.method == "POST":
                return reply(*self._submit(request))
            if request.method == "GET":
                jobs = [
                    {
                        "id": doc.get("id"),
                        "job_kind": doc.get("job_kind"),
                        "state": doc.get("state"),
                        "digest": doc.get("digest"),
                        "created": doc.get("created"),
                    }
                    for doc in self.manager.jobs()
                ]
                return reply(200, {"jobs": jobs, "counts": self.manager.index.counts()})
            raise HttpError(405, f"{request.method} not allowed on /v1/jobs")
        if len(parts) == 3 and parts[:2] == ("v1", "jobs"):
            if request.method != "GET":
                raise HttpError(405, f"{request.method} not allowed on a job")
            doc = self.manager.get(parts[2])
            if doc is None:
                raise HttpError(404, f"no such job {parts[2]!r}")
            return reply(200, doc)
        if (
            len(parts) == 4
            and parts[:2] == ("v1", "jobs")
            and parts[3] == "events"
        ):
            if request.method != "GET":
                raise HttpError(405, "events endpoint is GET-only")
            await self._stream_job(parts[2], writer)
            return True
        if len(parts) == 3 and parts[:2] == ("v1", "results"):
            if request.method != "GET":
                raise HttpError(405, f"{request.method} not allowed on a result")
            artifact = self.manager.result_for(parts[2])
            if artifact is None:
                raise HttpError(404, f"no cached artifact for digest {parts[2]!r}")
            return reply(200, artifact)
        raise HttpError(404, f"no route for {request.method} {request.path}")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _submit(self, request: Request):
        client = request.client
        if not self.limiter.allow(client):
            self.stats.throttled += 1
            # RFC 9110 Retry-After is integral delta-seconds; round the
            # limiter's fractional estimate up so a 0.3s wait never
            # reaches a client as 0 (instant retry, second 429).  The
            # integer travels in both the header and the JSON body.
            raise HttpError(
                429,
                f"rate limit exceeded for client {client!r}",
                retry_after=max(1, math.ceil(self.limiter.retry_after(client))),
            )
        doc = request.json()
        if "grid" in doc:
            job, coalesced = self.manager.submit_grid(doc["grid"], client=client)
        elif "trace" in doc:
            trace = doc["trace"]
            if not isinstance(trace, str):
                raise HttpError(400, "trace must be the activity-log CSV as a string")
            job, coalesced = self.manager.submit_trace(
                trace.encode("utf-8"),
                client=client,
                label=str(doc.get("label", "trace")),
            )
        else:
            raise HttpError(400, "job spec needs a 'grid' or a 'trace' field")
        self.stats.submissions += 1
        if coalesced:
            self.stats.coalesced += 1
        payload = dict(job)
        payload["coalesced_submission"] = coalesced
        return (200 if coalesced else 201), payload

    async def _stream_job(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        doc = self.manager.get(job_id)
        if doc is None:
            raise HttpError(404, f"no such job {job_id!r}")
        self._count(200)
        writer.write(sse_preamble())
        follower = HeartbeatFollower(self.manager.heartbeat_dir(job_id))
        fingerprint: object = None
        try:
            while True:
                doc = self.manager.get(job_id) or doc
                state = doc.get("state")
                progress = doc.get("progress") or {}
                current = (state, progress.get("done"))
                if current != fingerprint:
                    writer.write(sse_event("job", doc))
                    fingerprint = current
                for record in follower.poll():
                    writer.write(sse_event("heartbeat", record))
                await writer.drain()
                if state in TERMINAL_STATES:
                    for record in follower.poll():
                        writer.write(sse_event("heartbeat", record))
                    writer.write(sse_event("end", {"job": job_id, "state": state}))
                    await writer.drain()
                    return
                await asyncio.sleep(self.config.poll_interval)
        except (ConnectionResetError, BrokenPipeError):
            return  # client went away; nothing to clean up


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_service(
    config: ServiceConfig, out=sys.stdout, ready: Optional[threading.Event] = None
) -> int:
    """Run the service until SIGINT/SIGTERM; the blocking CLI path.

    On shutdown, running sweeps are cancelled and their jobs revert to
    ``queued`` in the on-disk index — the next start resumes them with
    every finished cell a cache hit.
    """

    async def _amain() -> None:
        service = CharacterizationService(config)
        if config.resume:
            resumed = service.manager.resume()
            if resumed:
                print(f"resumed {resumed} incomplete job(s)", file=out, flush=True)
        await service.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        print(
            f"repro serve listening on http://{config.host}:{service.port} "
            f"(state {config.state_dir}, cache {config.cache_dir})",
            file=out,
            flush=True,
        )
        if ready is not None:
            ready.set()
        await stop.wait()
        print("shutting down (incomplete jobs resume on restart)", file=out, flush=True)
        await service.stop()

    asyncio.run(_amain())
    return 0


class BackgroundService:
    """The service on a daemon thread with its own event loop.

    The harness tests and the throughput benchmark use: construct,
    talk HTTP to ``base_url``, then :meth:`stop`.  Usable as a context
    manager.  Pass ``port=0`` in the config to bind an ephemeral port.
    """

    def __init__(
        self, config: ServiceConfig, manager: Optional[JobManager] = None
    ) -> None:
        self.service = CharacterizationService(config, manager=manager)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("service failed to start within 10s")
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error}")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def _main() -> None:
            self._stop_event = asyncio.Event()
            try:
                await self.service.start()
            except BaseException as error:
                self._error = error
                self._started.set()
                return
            self._started.set()
            await self._stop_event.wait()
            await self.service.stop()

        try:
            self._loop.run_until_complete(_main())
        finally:
            self._loop.close()

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    @property
    def base_url(self) -> str:
        return f"http://{self.service.config.host}:{self.port}"

    @property
    def manager(self) -> JobManager:
        return self.service.manager

    def stop(self) -> None:
        if self._thread.is_alive() and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "BackgroundService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
