"""The simulation-as-a-service daemon: asyncio front, pool back.

``repro serve`` turns the runner stack into a long-lived batch server.
Architecture, front to back:

* **HTTP layer** — a hand-rolled HTTP/1.1 loop over ``asyncio.
  start_server`` (stdlib only; the container has no aiohttp).  Plain
  JSON request/response bodies, keep-alive connections for load, and
  chunked JSONL for job event streams.
* **Hot layer** — a bounded in-memory LRU of wire-ready result
  records.  A warm request never touches the filesystem, which is what
  carries the ≥1000 cached requests/s load target
  (``tests/test_serve_load.py``).
* **Coalescing layer** — identical in-flight ``/run`` submissions are
  folded onto one execution, keyed by the runner's content-addressed
  spec hash ``(key, metrics?)``.  The N-1 followers await the leader's
  future; exactly one simulation happens (locked by the load test via
  the ``on_execute`` counter hook).
* **Cache layer** — the shared on-disk :class:`~repro.runner.
  ResultCache`, sharded by spec-hash prefix (``shards=256`` by
  default) so the daemon's pool workers and any sibling tenants don't
  contend on one directory.
* **Execution layer** — :func:`repro.runner.run_sweep` on worker
  threads, with the PR 4 crash machinery (``task_timeout``/
  ``retries``/``on_error="return"``, pool rebuild, serial fallback).
  A SIGKILLed worker therefore surfaces as a ``failed`` record inside
  a terminal job — never as a hung connection — and the daemon keeps
  serving throughout (``tests/test_serve_chaos.py``).

PR 9 adds the layers that make the daemon itself expendable:

* **Durability** — with ``--state-dir`` every job owns a fsync'd
  write-ahead log (:mod:`repro.serve.jobs`, on the shared
  :mod:`repro.wal` helpers).  Startup replays the logs *after* the
  listener binds (``/readyz`` answers ``ready: false`` meanwhile) and
  re-enqueues only the unsettled specs of unfinished jobs; settled
  specs replay from the WAL and anything that completed between its
  journal write and the crash resolves from the result cache —
  restart finishes a job with zero recomputation
  (``tests/test_serve_durability.py``, ``benchmarks/
  serve_restart_smoke.py``).
* **Admission control** — in-flight ``/run`` executions and
  active+queued jobs are bounded; a saturated daemon sheds with
  ``429`` + ``Retry-After`` and a draining one (SIGTERM, ``POST
  /shutdown``) with ``503``, instead of building an unbounded backlog
  it cannot drain (``tests/test_serve_admission.py``).
* **Deadlines** — a request's ``deadline_ms`` flows request → job →
  ``map_specs(deadline=)``; pending work past the deadline settles as
  journaled ``fail_kind="deadline"`` records, never a hung
  connection, and the deadline itself is wall-clock so it survives a
  restart.

Nothing here logs tracebacks: every failure is rendered as one log
line and a structured HTTP error, which is what the CI serve-smoke
greps for.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import multiprocessing
import time
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro.dse.space import SPACES
from repro.runner import ResultCache, RunSpec, run_sweep
from repro.schema import decode
from repro.serve.jobs import JobStore, _result_record
from repro.serve.protocol import (
    DseBody,
    RunBody,
    SweepBody,
    WireError,
    parse_body,
    spec_from_wire,
    spec_key,
)
from repro.telemetry.events import (
    SERVE_DEADLINE,
    SERVE_DRAIN,
    SERVE_RECOVER,
    SERVE_SHED,
    TraceEvent,
)

log = logging.getLogger("repro.serve")

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

#: counter keys, in render order
COUNTER_KEYS = ("requests", "executions", "coalesced", "hot_hits",
                "disk_hits", "jobs_submitted", "jobs_failed",
                "jobs_recovered", "shed_requests", "deadline_expired",
                "errors")


class Shed(Exception):
    """Admission control rejected this request (429 saturated / 503
    draining); carries the status and a client-safe reason."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


@dataclasses.dataclass
class ServeConfig:
    """Everything the daemon needs, in one picklable bag."""

    host: str = "127.0.0.1"
    port: int = 8765                  # 0 = ephemeral (bound port is
    #                                   published on Server.port)
    cache_dir: Optional[str] = None   # None = no disk cache
    shards: int = 256
    max_bytes: Optional[int] = None
    workers: int = 0                  # pool size for sweep/DSE jobs
    task_timeout: Optional[float] = None
    retries: int = 0
    hot_capacity: int = 4096          # in-memory result records
    drain_timeout: float = 10.0       # grace for jobs at shutdown
    max_body: int = 32 << 20
    #: job WAL directory; None = in-memory jobs only (pre-PR 9
    #: behaviour).  With a state dir the daemon is crash-recoverable:
    #: restart on the same dir replays every job's journal.
    state_dir: Optional[str] = None
    #: admission control: jobs executing concurrently / waiting beyond
    #: that / distinct uncached ``/run`` executions in flight.  Beyond
    #: these the daemon sheds with 429 + ``Retry-After`` rather than
    #: queueing unboundedly.
    max_active_jobs: int = 4
    max_queued_jobs: int = 16
    max_inflight_runs: int = 64
    retry_after: float = 1.0          # Retry-After hint on 429/503
    #: optional telemetry sink (e.g. :class:`~repro.telemetry.
    #: JsonlTraceSink`) receiving serve lifecycle TraceEvents
    #: (``serve_recover``/``serve_shed``/``serve_deadline``/
    #: ``serve_drain``)
    lifecycle_sink: Optional[object] = None
    #: test/observer hook, called with the spec list just before every
    #: execution dispatch — the load suite counts pool executions here
    on_execute: Optional[Callable[[List[RunSpec]], None]] = None


class Server:
    """One daemon instance.  ``await start()`` binds, ``await serve()``
    runs until :meth:`request_shutdown` (signal, ``POST /shutdown`` or
    a test harness) and then drains gracefully."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.cache = (ResultCache(cfg.cache_dir, max_bytes=cfg.max_bytes,
                                  shards=cfg.shards)
                      if cfg.cache_dir else None)
        self.jobs = JobStore(state_dir=cfg.state_dir)
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self.port: Optional[int] = None
        self._hot: "OrderedDict[tuple, dict]" = OrderedDict()
        self._inflight: dict = {}
        self._job_tasks: set = set()
        self._conns: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        self._ready_event: Optional[asyncio.Event] = None
        self._job_sem: Optional[asyncio.Semaphore] = None
        self._active_jobs = 0
        self._waiting_jobs = 0
        self._started_at = time.time()

    @property
    def draining(self) -> bool:
        return self._stopping is not None and self._stopping.is_set()

    @property
    def ready(self) -> bool:
        """True once WAL replay has finished and until drain begins."""
        return (self._ready_event is not None
                and self._ready_event.is_set() and not self.draining)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._ready_event = asyncio.Event()
        self._job_sem = asyncio.Semaphore(
            max(1, self.config.max_active_jobs))
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("listening on %s:%d (workers=%d, cache=%s, shards=%d, "
                 "state=%s)",
                 self.config.host, self.port, self.config.workers,
                 self.config.cache_dir or "-", self.config.shards,
                 self.config.state_dir or "-")
        # recovery runs *after* the listener binds so /healthz and
        # /readyz are observable during replay; work submission stays
        # 503 until the WALs have been replayed
        task = self._loop.create_task(self._recover_state())
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)

    async def _recover_state(self) -> None:
        """Replay job WALs, resume unfinished jobs, then go ready."""
        try:
            if self.jobs.state_dir is not None:
                unfinished = await asyncio.to_thread(self.jobs.recover)
                recovered = [j for j in self.jobs.list()
                             if j.n_recovered or j in unfinished]
                self.counters["jobs_recovered"] += len(recovered)
                for job in recovered:
                    self._lifecycle(SERVE_RECOVER, job=job.id,
                                    settled=job.n_done,
                                    pending=job.n_total - job.n_done)
                if recovered or self.jobs.wal_dropped:
                    log.info("recovered %d job(s) from %s (%d resumed, "
                             "%d torn WAL line(s) dropped)",
                             len(recovered), self.jobs.state_dir,
                             len(unfinished), self.jobs.wal_dropped)
                for job in unfinished:
                    self._spawn_job(job, resume=True)
        except Exception as exc:
            # an unreadable state dir must not kill the daemon: log,
            # serve fresh work, leave the WALs untouched for forensics
            self.counters["errors"] += 1
            log.error("state recovery failed: %s: %s",
                      type(exc).__name__, exc)
        finally:
            self._ready_event.set()

    async def wait_ready(self) -> None:
        await self._ready_event.wait()

    async def serve(self) -> None:
        """Run until shutdown is requested, then drain and close."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        self._lifecycle(SERVE_DRAIN,
                        active_jobs=self._active_jobs,
                        waiting_jobs=self._waiting_jobs)
        log.info("draining: %d active job(s), %d waiting",
                 self._active_jobs, self._waiting_jobs)
        self._server.close()
        await self._server.wait_closed()
        if self._job_tasks:
            done, pending = await asyncio.wait(
                list(self._job_tasks), timeout=self.config.drain_timeout)
            for task in pending:
                task.cancel()
        for writer in list(self._conns):
            try:
                writer.close()
            except Exception:
                pass
        # let the handlers observe EOF and finish before asyncio.run
        # tears the loop down — a cancelled reader would log a spurious
        # traceback, and this daemon's log is asserted traceback-free
        for _ in range(200):
            if not self._conns:
                break
            await asyncio.sleep(0.01)
        # every WAL record is already fsynced; this just drops handles
        self.jobs.close()
        log.info("shutdown complete: %d requests, %d executions, "
                 "%d coalesced, %d jobs failed",
                 self.counters["requests"], self.counters["executions"],
                 self.counters["coalesced"], self.counters["jobs_failed"])

    def request_shutdown(self) -> None:
        """Threadsafe + signal-safe stop trigger."""
        loop, stopping = self._loop, self._stopping
        if loop is None or stopping is None:
            return
        loop.call_soon_threadsafe(stopping.set)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._conns.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body = request
                self.counters["requests"] += 1
                keep = await self._dispatch(method, path, body, writer)
                await writer.drain()
                if not keep or self._stopping.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass                      # loop teardown: exit quietly
        except Exception as exc:
            self.counters["errors"] += 1
            log.error("connection handler error: %s: %s",
                      type(exc).__name__, exc)
        finally:
            self._conns.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(self, reader) \
            -> Optional[Tuple[str, str, bytes]]:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.split()
        if len(parts) < 2:
            return None
        method = parts[0].decode("latin-1").upper()
        path = parts[1].decode("latin-1").split("?", 1)[0]
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"", b"\r\n", b"\n"):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return None
        if length > self.config.max_body:
            raise WireError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    def _send_json(self, writer, status: int, obj: dict,
                   keep: bool = True,
                   headers: Optional[dict] = None) -> None:
        payload = json.dumps(obj).encode("utf-8") + b"\n"
        extra = "".join("%s: %s\r\n" % kv
                        for kv in (headers or {}).items())
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n"
                "%s"
                "Connection: %s\r\n\r\n"
                % (status, _REASONS.get(status, "OK"), len(payload),
                   extra, "keep-alive" if keep else "close"))
        writer.write(head.encode("latin-1") + payload)

    async def _dispatch(self, method: str, path: str, body: bytes,
                        writer) -> bool:
        """Route one request; returns whether to keep the connection."""
        try:
            return await self._route(method, path, body, writer)
        except Shed as exc:
            self.counters["shed_requests"] += 1
            self._lifecycle(SERVE_SHED, path=path, reason=exc.reason)
            retry_after = max(1, int(round(self.config.retry_after)))
            self._send_json(writer, exc.status,
                            {"ok": False, "error": exc.reason,
                             "shed": True, "retry_after": retry_after},
                            headers={"Retry-After": str(retry_after)})
            return True
        except WireError as exc:
            self._send_json(writer, 400, {"ok": False,
                                          "error": str(exc)})
            return True
        except Exception as exc:
            self.counters["errors"] += 1
            log.error("error handling %s %s: %s: %s", method, path,
                      type(exc).__name__, exc)
            self._send_json(writer, 500,
                            {"ok": False,
                             "error": "%s: %s" % (type(exc).__name__,
                                                  exc)})
            return True

    async def _route(self, method: str, path: str, body: bytes,
                     writer) -> bool:
        if path == "/healthz" and method == "GET":
            # liveness: the process is up and the loop is turning —
            # true even while replaying WALs or draining
            self._send_json(writer, 200, {"ok": True})
            return True
        if path == "/readyz" and method == "GET":
            # readiness: false while WAL replay runs and once draining
            # begins, so a balancer stops routing before SIGTERM bites
            if self.ready:
                self._send_json(writer, 200, {"ok": True, "ready": True})
            else:
                self._send_json(writer, 503, {
                    "ok": False, "ready": False,
                    "recovering": (self._ready_event is None
                                   or not self._ready_event.is_set()),
                    "draining": self.draining})
            return True
        if path == "/stats" and method == "GET":
            self._send_json(writer, 200, self.stats())
            return True
        if method == "POST" and path in ("/run", "/sweep", "/dse") \
                and not self.ready:
            raise Shed(503, "draining" if self.draining
                       else "recovering")
        if path == "/run" and method == "POST":
            return await self._handle_run(body, writer)
        if path in ("/sweep", "/dse") and method == "POST":
            return self._handle_batch(path, body, writer)
        if path == "/jobs" and method == "GET":
            self._send_json(writer, 200, {
                "jobs": [j.summary() for j in self.jobs.list()]})
            return True
        if path.startswith("/jobs/"):
            return await self._handle_job(method, path, writer)
        if path == "/shutdown" and method == "POST":
            self._send_json(writer, 200, {"ok": True, "stopping": True},
                            keep=False)
            await writer.drain()
            self.request_shutdown()
            return False
        known = {"/healthz", "/readyz", "/stats", "/run", "/sweep",
                 "/dse", "/jobs", "/shutdown"}
        status = 405 if path in known else 404
        self._send_json(writer, status,
                        {"ok": False, "error": "%s %s" %
                         (_REASONS[status].lower(), path)})
        return True

    # ------------------------------------------------------------------
    # single runs: hot cache -> disk cache -> coalesce -> execute
    # ------------------------------------------------------------------
    async def _handle_run(self, body: bytes, writer) -> bool:
        obj = parse_body(body)
        # a bare spec is a valid body (the README's curl example)
        if "spec" not in obj and "benchmark" in obj:
            run = RunBody(spec_from_wire(obj))
        else:
            run = decode(RunBody, obj)
        record = await self._resolve(run.spec, run.metrics,
                                     run.deadline_ms)
        if record.get("ok"):
            status = 200
        elif record.get("fail_kind") == "deadline":
            status = 504
            self.counters["deadline_expired"] += 1
            self._lifecycle(SERVE_DEADLINE, path="/run", expired=1)
        else:
            status = 500
        self._send_json(writer, status, record)
        return True

    async def _resolve(self, spec: RunSpec, want_metrics: bool,
                       deadline_ms: Optional[float] = None) -> dict:
        key = spec_key(spec)
        ckey = (key, want_metrics)
        hot = self._hot.get(ckey)
        if hot is not None:
            self.counters["hot_hits"] += 1
            self._hot.move_to_end(ckey)
            return dict(hot, key=key, source="memory")
        if self.cache is not None:
            got = self.cache.get(key, with_metrics=want_metrics)
            if got is not None:
                record = _result_record(spec, got, True, want_metrics)
                self._hot_put(ckey, record)
                self.counters["disk_hits"] += 1
                return dict(record, key=key, source="disk")
        fut = self._inflight.get(ckey)
        if fut is not None:
            # followers join the leader's future; they neither count
            # against admission nor shorten the leader's deadline
            self.counters["coalesced"] += 1
            record = await asyncio.shield(fut)
            return dict(record, key=key, source="coalesced")
        if len(self._inflight) >= self.config.max_inflight_runs:
            raise Shed(429, "saturated")
        fut = self._loop.create_future()
        self._inflight[ckey] = fut
        self.counters["executions"] += 1
        try:
            record = await asyncio.to_thread(self._execute_single,
                                             spec, want_metrics,
                                             deadline_ms)
            fut.set_result(record)
        except BaseException:
            # followers must always settle — on an unexpected
            # cancellation they get a retryable error record
            if not fut.done():
                fut.set_result({"ok": False, "cached": False,
                                "error": "execution cancelled",
                                "fail_kind": "error"})
            raise
        finally:
            self._inflight.pop(ckey, None)
        if record.get("ok"):
            self._hot_put(ckey, record)
        return dict(record, key=key, source="executed")

    def _execute_single(self, spec: RunSpec, want_metrics: bool,
                        deadline_ms: Optional[float] = None) -> dict:
        cfg = self.config
        self._fire_on_execute([spec])
        deadline = None if deadline_ms is None \
            else time.monotonic() + deadline_ms / 1000.0
        try:
            (result,) = run_sweep([spec], workers=cfg.workers,
                                  cache=self.cache,
                                  collect_metrics=want_metrics,
                                  task_timeout=cfg.task_timeout,
                                  retries=cfg.retries,
                                  on_error="return",
                                  deadline=deadline)
        except Exception as exc:      # infrastructure, not the spec
            return {"ok": False, "cached": False,
                    "error": "%s: %s" % (type(exc).__name__, exc),
                    "fail_kind": "error"}
        return _result_record(spec, result, False, want_metrics)

    def _lifecycle(self, kind: str, **data) -> None:
        """Emit one serve lifecycle TraceEvent onto the configured
        sink (cycle 0: these describe the service, not a machine)."""
        sink = self.config.lifecycle_sink
        if sink is None:
            return
        try:
            sink.emit(TraceEvent(0, kind, data=data))
        except Exception:
            pass                      # telemetry must never shed work

    def _fire_on_execute(self, specs: List[RunSpec]) -> None:
        if self.config.on_execute is not None:
            try:
                self.config.on_execute(list(specs))
            except Exception:
                pass

    def _hot_put(self, ckey, record: dict) -> None:
        cap = self.config.hot_capacity
        if cap <= 0 or not record.get("ok"):
            return
        self._hot[ckey] = record
        self._hot.move_to_end(ckey)
        while len(self._hot) > cap:
            self._hot.popitem(last=False)

    # ------------------------------------------------------------------
    # batch jobs: sweeps and DSE
    # ------------------------------------------------------------------
    def _admit_job(self) -> None:
        """429 when the executing set is full *and* the wait queue is
        too — a bounded backlog is useful, an unbounded one is a slow
        outage."""
        if (self._active_jobs >= self.config.max_active_jobs
                and self._waiting_jobs >= self.config.max_queued_jobs):
            raise Shed(429, "saturated")

    def _handle_batch(self, path: str, body: bytes, writer) -> bool:
        """``/sweep`` or ``/dse``, admitted before the body's fields are
        decoded.  A DSE submission is sugar for a sweep over a space."""
        obj = parse_body(body)
        self._admit_job()
        if path == "/sweep":
            req = decode(SweepBody, obj)
            specs = list(req.specs)
            meta = {"submitted_specs": len(specs)}
        else:
            req = decode(DseBody, obj)
            space = SPACES[req.space]() if isinstance(req.space, str) \
                else req.space
            try:
                points = space.points()
            except ValueError as exc:     # a machine shape, e.g. the BTB
                raise WireError(str(exc), "space") from None
            if req.n_points is not None:
                points = space.sample(min(req.n_points, len(points)),
                                      req.seed)
            specs = [p.to_spec(req.benchmark, req.n_samples, req.seed)
                     for p in points]
            meta = {"space_digest": space.digest(),
                    "benchmark": req.benchmark,
                    "n_samples": req.n_samples, "seed": req.seed,
                    "points": [p.key() for p in points]}
        job = self._submit_job(path[1:], specs, req.metrics, meta=meta,
                               deadline_ms=req.deadline_ms)
        self._send_json(writer, 202, {"ok": True, "job": job.summary()})
        return True

    def _submit_job(self, kind: str, specs: List[RunSpec],
                    collect_metrics: bool, meta: Optional[dict] = None,
                    deadline_ms: Optional[float] = None):
        distinct = list(dict.fromkeys(specs))
        deadline_at = None if deadline_ms is None \
            else time.time() + deadline_ms / 1000.0
        job = self.jobs.create(kind, distinct,
                               collect_metrics=collect_metrics,
                               meta=meta, deadline_at=deadline_at)
        self.counters["jobs_submitted"] += 1
        self._spawn_job(job)
        return job

    def _spawn_job(self, job, resume: bool = False) -> None:
        task = self._loop.create_task(self._run_job(job, resume=resume))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)

    async def _run_job(self, job, resume: bool = False) -> None:
        # waiting/active accounting feeds _admit_job and /stats; the
        # semaphore bounds concurrent pool sweeps, not submissions
        self._waiting_jobs += 1
        await self._job_sem.acquire()
        self._waiting_jobs -= 1
        self._active_jobs += 1
        try:
            await self._run_job_held(job, resume)
        finally:
            self._active_jobs -= 1
            self._job_sem.release()

    async def _run_job_held(self, job, resume: bool) -> None:
        if resume:
            job.resume()
        else:
            job.start()
        before_done = job.n_done
        before_cached = job.n_cached
        before_deadline = job.n_deadline
        try:
            await asyncio.to_thread(self._execute_job, job)
        except Exception as exc:      # infrastructure, not a spec
            self.counters["jobs_failed"] += 1
            job.finish(error="%s: %s" % (type(exc).__name__, exc))
            log.error("job %s failed: %s: %s", job.id,
                      type(exc).__name__, exc)
            return
        self.counters["executions"] += \
            (job.n_done - before_done) - (job.n_cached - before_cached)
        expired = job.n_deadline - before_deadline
        if expired:
            self.counters["deadline_expired"] += expired
            self._lifecycle(SERVE_DEADLINE, job=job.id, expired=expired)
        job.finish()
        if job.state == "failed":
            self.counters["jobs_failed"] += 1
        log.info("job %s %s: %d specs, %d cached, %d failed, %.2fs",
                 job.id, job.state, job.n_total, job.n_cached,
                 job.n_failed, job.finished - job.started)

    def _execute_job(self, job) -> None:
        cfg = self.config
        pending = job.pending_specs()
        if not pending:
            return                    # fully replayed from the WAL
        if job.deadline_expired():
            # already past deadline: settle pending without touching
            # the pool (journaled as fail_kind="deadline" records)
            job.expire_pending()
            return
        self._fire_on_execute(pending)
        run_sweep(pending, workers=cfg.workers, cache=self.cache,
                  collect_metrics=job.collect_metrics,
                  task_timeout=cfg.task_timeout, retries=cfg.retries,
                  on_error="return", on_result=job.note_result,
                  deadline=job.monotonic_deadline())

    # ------------------------------------------------------------------
    # job introspection and event streaming
    # ------------------------------------------------------------------
    async def _handle_job(self, method: str, path: str, writer) -> bool:
        parts = [p for p in path.split("/") if p]    # jobs/<id>[/events]
        if method != "GET" or len(parts) not in (2, 3):
            self._send_json(writer, 404, {"ok": False,
                                          "error": "not found"})
            return True
        job = self.jobs.get(parts[1])
        if job is None:
            self._send_json(writer, 404, {"ok": False,
                                          "error": "no such job %s"
                                          % parts[1]})
            return True
        if len(parts) == 2:
            self._send_json(writer, 200, {"ok": True,
                                          "job": job.to_wire()})
            return True
        if parts[2] != "events":
            self._send_json(writer, 404, {"ok": False,
                                          "error": "not found"})
            return True
        await self._stream_events(job, writer)
        return False                  # streams close their connection

    async def _stream_events(self, job, writer) -> None:
        """Chunked JSONL: one progress event per line, until the job's
        terminal event has been delivered."""
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        sent = 0
        while True:
            while sent < len(job.events):
                line = json.dumps(job.events[sent]).encode("utf-8") \
                    + b"\n"
                writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
                sent += 1
            await writer.drain()
            if job.is_finished and sent >= len(job.events):
                break
            if self._stopping.is_set():
                break
            await asyncio.sleep(0.05)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        cache = None
        if self.cache is not None:
            cache = {"root": self.cache.root, "shards": self.cache.shards,
                     "hits": self.cache.hits, "misses": self.cache.misses,
                     "dropped": self.cache.dropped,
                     "evicted": self.cache.evicted,
                     "migrated": self.cache.migrated}
        return {
            "ok": True,
            "uptime": round(time.time() - self._started_at, 3),
            "ready": self.ready,
            "draining": self.draining,
            "state_dir": self.config.state_dir,
            "counters": dict(self.counters),
            "jobs": self.jobs.counts(),
            "active_jobs": self._active_jobs,
            "waiting_jobs": self._waiting_jobs,
            "inflight": len(self._inflight),
            "hot_entries": len(self._hot),
            "cache": cache,
            # live pool workers (children of this process); the chaos
            # smoke SIGKILLs one of these mid-sweep
            "worker_pids": sorted(p.pid for p in
                                  multiprocessing.active_children()
                                  if p.pid is not None),
        }


async def run_server(config: ServeConfig,
                     install_signals: bool = True) -> Server:
    """Build, bind and serve until shutdown; returns the served
    instance (useful for post-mortem counters in tests/smoke)."""
    import signal

    server = Server(config)
    await server.start()
    if install_signals:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):
                break                 # non-main thread / platform
    await server.serve()
    return server
