"""The coordinator: admission, job state, leases, and the store proxy.

One :class:`ClusterCoordinator` is both ``stfm-sim serve`` and
``stfm-sim coordinator``.  It owns the bounded admission queue, the
crash-safe job state, idempotent and digest-coalesced submission,
``/metrics``, and the lease table.  Every job, wherever it runs, is
started by a lease grant and settled by a lease completion:

* ``workers=0`` (the cluster): runner processes lease jobs over HTTP
  and post results back;
* ``workers=N`` (``serve``): N in-process runners take jobs off the
  queue, lease them by direct call, execute them on a thread pool and
  heartbeat by direct call until they settle.

Endpoints::

    POST /v1/jobs                    submit a spec    202 | 200 (coalesced) |
                                                      400 | 429 (+Retry-After) | 503
    GET  /v1/jobs/<id>               job status       200 | 404
    GET  /v1/results                 job listing      200
    GET  /v1/results/<id>            result payload   200 (terminal) | 202 | 404
                                     (held while ``Prefer: wait=N``)
    GET  /healthz                    liveness + drain state
    GET  /metrics                    Prometheus text (version 0.0.4)
    POST /v1/leases                  lease a job      200 | 204 (none) | 400 | 503
                                     (held while ``"wait": N``)
    POST /v1/leases/<id>/heartbeat   extend deadline  200 | 410 (lost)
    POST /v1/leases/<id>/complete    settle the job   200 | 400 | 410 (redelivered)
    GET  /v1/cluster                 topology view    200
    GET  /v1/store/<key>             store proxy      200 | 404
    PUT  /v1/store/<key>             store proxy      204 | 412 (conditional)
    POST /v1/store/<key>/quarantine  store proxy      204
    GET  /v1/store                   store stats      200
    POST /v1/store/prune             prune the store  200

Two requests are held (long-polled), each for at most ``MAX_HOLD``
seconds, and woken by the change they wait for, never by a timer:

* a lease request with ``"wait": N`` that finds nothing to take parks
  on :attr:`AdmissionQueue.arrival` (set by ``admit`` and ``requeue``):
  200 once it can take a job, 204 when the window ends, 503 at once
  when draining starts.  A runner that hangs up while parked is
  granted nothing.
* ``GET /v1/results/<id>`` with ``Prefer: wait=N`` (RFC 7240) parks on
  the job's settlement event, set in ``_job_done``.

Identical specs submitted while one is queued or running coalesce onto
the same job id (cross-client dedup *above* the engine); identical
simulation sub-jobs of *different* specs dedup below, in the shared
content-addressed result store.

Leases are routed with *cache affinity*: each pending job's spec digest
maps onto a live runner by rendezvous hashing, and a requesting runner
is preferentially given jobs it owns — identical and near-identical
specs keep landing on the runner whose engine memory cache is already
warm.  Routing is work-conserving: a runner that owns nothing pending
takes the oldest job rather than idling.  In-process runners take the
oldest job.

A lease that misses its heartbeats expires: the job is requeued at the
front and the next lease request redelivers it (at-least-once).  A
completion for an expired lease is answered ``410 Gone`` and its
payload discarded, so only one attempt ever settles a job.  On SIGTERM
the coordinator stops admitting (503), lets the in-process runners
finish every admitted job, waits for active leases, persists state and
exits 0.

The lease lifecycle and the status codes above are declared once, as
data, in :mod:`repro.cluster.lease_model`; ``simlint`` (SIM107/SIM108)
checks the handlers against that model statically, and the opt-in
:class:`~repro.cluster.lease_model.LeaseSanitizer` replays every
transition at runtime.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import hashlib
import json
import math
import re
import signal
import time
from dataclasses import dataclass
from functools import partial

from repro import faults
from repro.engine import session_report
from repro.engine.store import ResultStore
from repro.service import state as jobstate
from repro.service.api import SpecError, parse_spec, spec_digest
from repro.service.metrics import MetricsRegistry
from repro.service.queue import AdmissionQueue, QueueFullError
from repro.service.server import (
    MAX_HOLD,
    _first_of,
    _hung_up,
    _HttpError,
    _json_response,
    _preferred_wait,
    _read_request,
    _serialize_response,
)
from repro.service.state import Job, JobStore
from repro.service.workers import execute_spec
from repro.cluster.checkpoint import CheckpointState, CoordinatorCheckpoint
from repro.cluster.leases import Lease, LeaseTable

_KEY_RE = re.compile(r"[A-Za-z0-9._-]{1,200}")

#: A runner counts as live for affinity routing for this many lease
#: TTLs after its last contact (and always while it has a request
#: parked).
_LIVENESS_TTLS = 3.0



@dataclass(frozen=True)
class CoordinatorConfig:
    """Everything ``stfm-sim serve`` and ``stfm-sim coordinator`` need."""

    host: str = "127.0.0.1"
    port: int = 8765  # 0 = pick a free port (tests)
    workers: int = 0  # in-process runners; 0 = runner processes only
    queue_limit: int = 32
    engine_jobs: int = 1  # simulation processes per in-process job
    cache_dir: "str | None" = None  # shared store location (any backend)
    state_dir: str = "stfm-coordinator-state"
    job_timeout: "float | None" = None  # in-process watchdog deadline, s
    lease_ttl: float = 15.0


class ClusterCoordinator:
    """Queue, job state, leases, metrics and HTTP for one state dir.

    Args:
        config: See :class:`CoordinatorConfig`.  ``workers=0`` is
            allowed — nothing executes in-process, which the cluster
            and the backpressure tests rely on.  ``job_timeout`` (None
            disables it) fails an in-process job past its deadline with
            a ``watchdog:`` error and settles its lease; its thread
            cannot be killed and runs on until the engine's own
            per-process timeouts fire, but the runner moves on and the
            late result is discarded.
    """

    def __init__(self, config: CoordinatorConfig) -> None:
        if config.workers < 0:
            raise ValueError("worker count cannot be negative")
        if config.job_timeout is not None and config.job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        self.config = config
        self.store = (
            ResultStore(config.cache_dir) if config.cache_dir else None
        )
        self.state = JobStore(config.state_dir)
        self.jobs: dict[str, Job] = {}
        self._active_by_digest: dict[str, str] = {}
        self._by_idempotency: dict[str, str] = {}
        self._seq = 0
        self.queue = AdmissionQueue(config.queue_limit)
        self.draining = False
        # Set when draining starts: run() waits on it, and parked lease
        # requests wake on it to answer 503.
        self._stop_requested = asyncio.Event()
        # Set just before the listener closes: held result requests
        # wake on it.
        self._closing = asyncio.Event()
        # Lease requests parked per runner, and the settlement event of
        # each job a result request is held on.
        self._parked: dict[str, int] = {}
        self._settled: dict[str, asyncio.Event] = {}
        self._requests: set[asyncio.Task] = set()  # connections in progress
        self._server: "asyncio.base_events.Server | None" = None
        self.port = config.port
        # The checkpoint makes incarnation-scoped state durable: lease
        # ids embed the incarnation (no cross-crash collisions), and
        # the recovery / expiry counters accumulate across restarts.
        self.checkpoint = CoordinatorCheckpoint(config.state_dir)
        prior = self.checkpoint.load()
        self.incarnation = prior.incarnation + 1
        self.resume_recoveries = prior.resume_recoveries
        self.leases = LeaseTable(
            ttl=config.lease_ttl, id_prefix=f"i{self.incarnation}-"
        )
        self.leases.expirations = prior.expirations
        self.leases.redeliveries = prior.redeliveries
        self.leases.late_completions = prior.late_completions
        self._runners_seen: dict[str, float] = {}
        self._runner_engine: dict[str, dict[str, int]] = {}
        self._runner_capacity: dict[str, int] = {}
        self._runner_breaker_opens: dict[str, int] = {}
        self.watchdog_timeouts = 0
        self._tasks: list[asyncio.Task] = []  # the sweep + local runners
        self._executor: "concurrent.futures.ThreadPoolExecutor | None" = None
        self._build_metrics()

    # -- metrics ------------------------------------------------------------
    def _build_metrics(self) -> None:
        m = MetricsRegistry()
        self.metrics = m
        m.gauge(
            "stfm_service_queue_depth",
            "Jobs admitted but not yet picked up by a runner.",
            read=lambda: self.queue.depth,
        )
        m.gauge(
            "stfm_service_inflight_jobs",
            "Jobs currently executing (active leases).",
            read=lambda: len(self.leases),
        )
        m.gauge(
            "stfm_service_draining",
            "1 while the service is draining after SIGTERM.",
            read=lambda: int(self.draining),
        )
        self.m_http = m.counter(
            "stfm_service_http_requests_total",
            "HTTP responses served, by status code.",
        )
        self.m_jobs = m.counter(
            "stfm_service_jobs_total",
            "Job admissions and outcomes, by event.",
        )
        self.m_wall = m.summary(
            "stfm_service_job_wall_seconds",
            "Wall-clock seconds per executed job.",
        )
        m.gauge(
            "stfm_store_hits_total",
            "Result-store lookups answered from disk (cross-client dedup).",
            read=lambda: self.store.hits if self.store else 0,
        )
        m.gauge(
            "stfm_store_misses_total",
            "Result-store lookups that required simulation.",
            read=lambda: self.store.misses if self.store else 0,
        )
        m.gauge(
            "stfm_store_entries",
            "Entries currently in the shared result store.",
            read=lambda: self.store.stats().entries if self.store else 0,
        )
        m.gauge(
            "stfm_engine_jobs_simulated_total",
            "Simulation jobs actually executed by this process's engine.",
            read=lambda: session_report().jobs_run,
        )
        m.gauge(
            "stfm_engine_cache_hits_total",
            "Engine cache hits (memory + disk) in this process.",
            read=lambda: session_report().hits,
        )
        m.gauge(
            "stfm_engine_retries_total",
            "Worker crash/timeout retries by this process's engine.",
            read=lambda: session_report().retries,
        )
        m.gauge(
            "stfm_engine_fallbacks_total",
            "Clean-room fallback attempts after fault-exhausted retries.",
            read=lambda: session_report().fallbacks,
        )
        m.gauge(
            "stfm_store_quarantined_total",
            "Corrupt result-store entries quarantined on read.",
            read=lambda: self.store.quarantined if self.store else 0,
        )
        m.gauge(
            "stfm_store_put_errors_total",
            "Best-effort result-store writes that failed (disk full, EIO).",
            read=lambda: self.store.put_errors if self.store else 0,
        )
        m.gauge(
            "stfm_service_watchdog_timeouts_total",
            "Jobs failed by the per-job deadline watchdog.",
            read=lambda: self.watchdog_timeouts,
        )
        m.gauge(
            "stfm_faults_injected_total",
            "Faults fired by the STFM_SIM_FAULTS injection layer.",
            read=faults.injected_total,
        )
        m.multi_gauge(
            "stfm_cluster_active_leases",
            "Leases currently held, per runner.",
            read=lambda: [
                ({"runner": runner}, count)
                for runner, count in sorted(self.leases.active_by_runner().items())
            ],
        )
        m.multi_gauge(
            "stfm_cluster_leases_granted_total",
            "Leases ever granted, per runner.",
            read=lambda: [
                ({"runner": runner}, count)
                for runner, count in sorted(self.leases.granted.items())
            ],
        )
        m.multi_gauge(
            "stfm_cluster_runner_sims_total",
            "Simulation jobs actually executed, per runner (from "
            "completion reports).",
            read=lambda: [
                ({"runner": runner}, counts.get("jobs_run", 0))
                for runner, counts in sorted(self._runner_engine.items())
            ],
        )
        m.multi_gauge(
            "stfm_cluster_runner_cache_hits_total",
            "Engine cache hits, per runner (from completion reports).",
            read=lambda: [
                ({"runner": runner}, counts.get("hits", 0))
                for runner, counts in sorted(self._runner_engine.items())
            ],
        )
        m.gauge(
            "stfm_cluster_lease_expirations_total",
            "Leases that missed their heartbeats and expired.",
            read=lambda: self.leases.expirations,
        )
        m.gauge(
            "stfm_cluster_redeliveries_total",
            "Jobs requeued after their lease expired (at-least-once).",
            read=lambda: self.leases.redeliveries,
        )
        m.gauge(
            "stfm_cluster_late_completions_total",
            "Completions discarded because the lease had expired.",
            read=lambda: self.leases.late_completions,
        )
        m.gauge(
            "stfm_cluster_runners_live",
            "Runners that requested or heartbeat a lease recently.",
            read=lambda: len(self._live_runners()),
        )
        self.m_proxy = m.counter(
            "stfm_store_proxy_requests_total",
            "Store-proxy operations served, by op and outcome.",
        )
        self.m_duplicate_puts = m.counter(
            "stfm_store_proxy_duplicate_puts_total",
            "Unconditional proxy puts whose key already existed — "
            "nonzero means two runners re-uploaded the same sub-job.",
        )
        self.m_conditional_skips = m.counter(
            "stfm_store_proxy_conditional_put_skips_total",
            "Conditional puts (If-None-Match: *) answered 412 because "
            "the blob was already stored — redundant uploads avoided.",
        )
        m.gauge(
            "stfm_cluster_incarnation",
            "How many times this coordinator state dir has been started.",
            read=lambda: self.incarnation,
        )
        m.gauge(
            "stfm_cluster_resume_recoveries_total",
            "Jobs re-queued by crash-restart recovery, cumulative "
            "across coordinator incarnations.",
            read=lambda: self.resume_recoveries,
        )
        m.multi_gauge(
            "stfm_cluster_runner_breaker_opens_total",
            "Circuit-breaker openings, per runner (from completion "
            "reports; each runner reports its own cumulative count).",
            read=lambda: [
                ({"runner": runner}, opens)
                for runner, opens in sorted(
                    self._runner_breaker_opens.items()
                )
            ],
        )

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Recover persisted state, open the listener, start the lease
        sweep and the in-process runners."""
        jobs, requeue, stale = self.state.recover()
        if stale:
            # Each job RUNNING at the crash held a lease that died with
            # the previous incarnation: count it as expired.
            self.leases.expirations += stale
            print(
                f"recovered: discarded {stale} stale lease(s) from a "
                f"previous incarnation",
                flush=True,
            )
        for job in jobs:
            self.jobs[job.id] = job
            self._seq = max(self._seq, job.seq)
            if job.idempotency_key:
                self._by_idempotency[job.idempotency_key] = job.id
        for job in requeue:
            self._active_by_digest[job.digest] = job.id
            self.queue.admit(job.id)
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.resume_recoveries += len(requeue)
        if requeue:
            print(
                f"recovered: re-queued {len(requeue)} job(s) "
                f"(incarnation {self.incarnation})",
                flush=True,
            )
        self._save_checkpoint()
        loop = asyncio.get_running_loop()
        self._tasks = [loop.create_task(self._sweep_loop())]
        if self.config.workers:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="stfm-sim-worker",
            )
            self._tasks += [
                loop.create_task(self._local_runner(f"local-{i}"))
                for i in range(self.config.workers)
            ]

    def _save_checkpoint(self) -> None:
        self.checkpoint.save(CheckpointState(
            incarnation=self.incarnation,
            resume_recoveries=self.resume_recoveries,
            expirations=self.leases.expirations,
            redeliveries=self.leases.redeliveries,
            late_completions=self.leases.late_completions,
        ))

    def request_drain(self) -> None:
        """Signal-safe: stop admitting and let :meth:`run` finish up."""
        self.draining = True
        self._stop_requested.set()

    async def drain_and_stop(self) -> None:
        """Stop admitting, let in-process runners finish every admitted
        job, wait for active leases, then shut everything down."""
        self.draining = True
        self._stop_requested.set()
        if self.config.workers:
            await self.queue.join()
        # Outstanding remote leases either complete (live runner) or
        # expire and requeue.  Requeued jobs persist as QUEUED and
        # recover on the next start, so without in-process runners
        # drain never waits for the queue to empty.
        deadline = time.monotonic() + self.leases.ttl + 5.0
        while self.leases.active() and time.monotonic() < deadline:
            self._expire_due()
            await asyncio.sleep(0.05)
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        self._save_checkpoint()
        self._closing.set()
        if self._executor is not None:
            # wait=False: any thread still running belongs to a
            # watchdog-abandoned job — waiting for it would stall the
            # event loop indefinitely.
            self._executor.shutdown(wait=False)
            self._executor = None
        if self._server is not None:
            self._server.close()
            if self._requests:
                # Let the requests just woken send their answers (503,
                # the job view) before the loop can stop.
                await asyncio.wait(self._requests, timeout=5.0)
            await self._server.wait_closed()
            self._server = None

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_drain)
        print(
            f"stfm-sim service listening on "
            f"http://{self.config.host}:{self.port}",
            flush=True,
        )
        await self._stop_requested.wait()
        print("draining: finishing admitted jobs ...", flush=True)
        await self.drain_and_stop()
        print("drained; bye", flush=True)

    async def _sweep_loop(self) -> None:
        interval = max(0.05, min(1.0, self.leases.ttl / 4.0))
        while True:
            await asyncio.sleep(interval)
            self._expire_due()
            # Keep the durable counter bases fresh: a kill -9 loses at
            # most one sweep interval of counter increments.
            self._save_checkpoint()

    def _expire_due(self) -> None:
        for lease in self.leases.expire_due(time.monotonic()):
            job = self.jobs.get(lease.job_id)
            if job is None or job.status in jobstate.TERMINAL:
                continue
            job.status = jobstate.QUEUED
            self.state.save(job)
            self.queue.requeue(job.id)
            self.m_jobs.inc(event="redelivered")

    # -- the job lifecycle --------------------------------------------------
    def _start_lease(self, job_id: str, runner: str, now: float) -> Lease:
        """Lease a job just taken off the queue to ``runner``.  The job
        record numbers the attempt and is saved before any runner can
        see the lease, so no crash reuses an attempt number."""
        job = self.jobs[job_id]
        lease = self.leases.grant(
            job_id, runner, now, attempt=job.attempts + 1
        )
        job.status = jobstate.RUNNING
        job.attempts = lease.attempt
        self.state.save(job)
        self.m_jobs.inc(event="leased")
        return lease

    def _settle_lease(
        self, lease_id: str, result: "dict | None", error: "str | None",
        wall: float,
    ) -> "Lease | None":
        """Settle a lease with its job's outcome; None when the lease
        already expired (a late duplicate, discarded)."""
        lease = self.leases.complete(lease_id)
        if lease is None:
            return None
        job = self.jobs[lease.job_id]
        job.runner = lease.runner
        if error is None and result is None:
            error = "runner reported neither result nor error"
        self._job_done(job.id, result, error, wall)
        self.queue.observe(wall)
        self.queue.task_done()
        return lease

    def _job_done(
        self, job_id: str, result: "dict | None", error: "str | None",
        wall: float,
    ) -> None:
        job = self.jobs[job_id]
        job.wall_time = wall
        if error is None:
            job.status = jobstate.DONE
            job.result = result
            self.m_jobs.inc(event="done")
        else:
            job.status = jobstate.FAILED
            job.error = error
            self.m_jobs.inc(event="failed")
        self.m_wall.observe(wall)
        if self._active_by_digest.get(job.digest) == job_id:
            del self._active_by_digest[job.digest]
        self.state.save(job)
        settled = self._settled.pop(job_id, None)
        if settled is not None:
            settled.set()

    async def _local_runner(self, name: str) -> None:
        """One in-process runner: lease the oldest queued job, execute
        it on the thread pool while heartbeating every ``ttl/3``, and
        settle the lease with the outcome.  Any exception out of the
        engine fails that job only."""
        loop = asyncio.get_running_loop()
        timeout = self.config.job_timeout
        while True:
            job_id = await self.queue.get()
            lease = self._start_lease(job_id, name, time.monotonic())
            started = time.perf_counter()
            result = None
            error = None
            try:
                if faults.fires("service", job_id):
                    raise RuntimeError("injected service worker fault")
                future = loop.run_in_executor(self._executor, partial(
                    execute_spec,
                    self.jobs[job_id].spec,
                    store=self.store,
                    engine_jobs=self.config.engine_jobs,
                ))
                deadline = None if timeout is None else loop.time() + timeout
                while True:
                    wait = self.leases.ttl / 3.0
                    if deadline is not None:
                        wait = min(wait, deadline - loop.time())
                    await asyncio.wait({future}, timeout=max(0.0, wait))
                    if future.done():
                        result = future.result()
                        break
                    if deadline is not None and loop.time() >= deadline:
                        self.watchdog_timeouts += 1
                        error = (
                            f"watchdog: job exceeded {timeout:g}s deadline"
                        )
                        # The thread cannot be killed; discard whatever
                        # it eventually produces (result or exception)
                        # so the orphan never logs "exception was never
                        # retrieved".
                        future.add_done_callback(
                            lambda f: f.cancelled() or f.exception()
                        )
                        break
                    self.leases.heartbeat(lease.id, time.monotonic())
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # a crash marks the job failed
                error = f"{type(exc).__name__}: {exc}"
            self._settle_lease(
                lease.id, result, error, time.perf_counter() - started
            )

    def _submit(
        self, raw_spec: object, idempotency_key: "str | None" = None
    ) -> tuple[int, dict]:
        spec = parse_spec(raw_spec)  # SpecError → 400 (handled by caller)
        normalized = spec.normalized()
        digest = spec_digest(normalized)
        if idempotency_key is not None:
            # A retried POST (response lost, connection dropped) carries
            # the same key as the original attempt and must land on the
            # job that attempt created — even if it finished meanwhile.
            known = self._by_idempotency.get(idempotency_key)
            if known is not None and known in self.jobs:
                self.m_jobs.inc(event="idempotent_replay")
                view = self.jobs[known].view()
                view["deduplicated"] = True
                return 200, view
        active = self._active_by_digest.get(digest)
        if active is not None:
            self.m_jobs.inc(event="coalesced")
            job = self.jobs[active]
            if idempotency_key is not None:
                self._by_idempotency[idempotency_key] = job.id
            view = job.view()
            view["deduplicated"] = True
            return 200, view
        self._seq += 1
        job = Job(
            id=f"{digest[:12]}-{self._seq:04d}",
            spec=normalized,
            digest=digest,
            seq=self._seq,
            idempotency_key=idempotency_key,
        )
        try:
            self.queue.submit(job.id, inflight=len(self.leases))
        except QueueFullError:
            self._seq -= 1
            self.m_jobs.inc(event="rejected")
            raise
        self.jobs[job.id] = job
        self._active_by_digest[digest] = job.id
        if idempotency_key is not None:
            self._by_idempotency[idempotency_key] = job.id
        self.state.save(job)
        self.m_jobs.inc(event="submitted")
        view = job.view()
        view["deduplicated"] = False
        view["location"] = f"/v1/jobs/{job.id}"
        return 202, view

    # -- HTTP ---------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._requests.add(task)
        task.add_done_callback(self._requests.discard)
        response: "tuple[int, dict, bytes] | None" = None
        try:
            request = await _read_request(reader)
            if request is not None:
                method, path, req_headers, req_body = request
                response = await self._route(
                    method, path, req_headers, req_body, reader
                )
        except _HttpError as exc:
            response = _json_response(exc.status, {"error": exc.message})
        except Exception as exc:  # never kill the server on one request
            response = _json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        try:
            if response is not None:
                status, headers, body = response
                self.m_http.inc(code=str(status))
                writer.write(_serialize_response(status, headers, body))
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, method: str, path: str, headers: dict, body: bytes,
        reader: asyncio.StreamReader,
    ) -> "tuple[int, dict, bytes] | None":
        """The response to one request; None sends nothing (a lease
        request whose runner hung up)."""
        if path == "/healthz" and method == "GET":
            return _json_response(200, self._health())
        if path == "/metrics" and method == "GET":
            return (
                200,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                self.metrics.render().encode(),
            )
        if path == "/v1/jobs" and method == "POST":
            return self._route_submit(headers, body)
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._route_job(path[len("/v1/jobs/"):], with_result=False)
        if path == "/v1/results" and method == "GET":
            return self._route_results_index()
        if path.startswith("/v1/results/") and method == "GET":
            return await self._route_result(
                path[len("/v1/results/"):], headers
            )
        if path == "/v1/leases" and method == "POST":
            return await self._route_lease_request(body, reader)
        if path.startswith("/v1/leases/") and method == "POST":
            rest = path[len("/v1/leases/"):]
            lease_id, _, action = rest.partition("/")
            if action == "heartbeat":
                return self._route_heartbeat(lease_id)
            if action == "complete":
                return self._route_complete(lease_id, body)
            raise _HttpError(404, f"no such lease action: {action!r}")
        if path == "/v1/cluster" and method == "GET":
            return _json_response(200, self._cluster_view())
        if path == "/v1/store" or path.startswith("/v1/store/"):
            return self._route_store(method, path, headers, body)
        if path.startswith(("/v1/", "/healthz", "/metrics")):
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no such endpoint: {path}")

    def _route_submit(
        self, headers: dict, body: bytes
    ) -> tuple[int, dict, bytes]:
        if self.draining:
            raise _HttpError(503, "service is draining; not accepting jobs")
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "request body is not valid JSON") from None
        try:
            status, view = self._submit(
                raw, idempotency_key=headers.get("idempotency-key")
            )
        except SpecError as exc:
            raise _HttpError(400, str(exc)) from None
        except QueueFullError as exc:
            status, headers, payload = _json_response(
                429,
                {
                    "error": "admission queue is full",
                    "retry_after": exc.retry_after,
                },
            )
            headers["Retry-After"] = str(exc.retry_after)
            return status, headers, payload
        return _json_response(status, view)

    def _route_job(
        self, job_id: str, with_result: bool
    ) -> tuple[int, dict, bytes]:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if not with_result:
            return _json_response(200, job.view())
        if job.status in jobstate.TERMINAL:
            return _json_response(200, job.view(include_result=True))
        return _json_response(202, job.view())

    async def _route_result(
        self, job_id: str, headers: dict
    ) -> tuple[int, dict, bytes]:
        """``GET /v1/results/<id>``, held up to the ``Prefer: wait=N``
        window while the job is not terminal."""
        job = self.jobs.get(job_id)
        hold = _preferred_wait(headers)
        if hold > 0 and job and job.status not in jobstate.TERMINAL:
            settled = self._settled.setdefault(job_id, asyncio.Event())
            await _first_of(hold, settled.wait(), self._closing.wait())
        return self._route_job(job_id, with_result=True)

    def _route_results_index(self) -> tuple[int, dict, bytes]:
        """``GET /v1/results``: list every known job (no payloads).

        Submission order (the per-service sequence number), so a client
        can page through history deterministically; results themselves
        stay behind ``/v1/results/<id>``.
        """
        listing = [
            {
                "id": job.id,
                "spec_digest": job.digest,
                "status": job.status,
            }
            for job in sorted(self.jobs.values(), key=lambda j: j.seq)
        ]
        return _json_response(200, {"results": listing, "count": len(listing)})

    # -- leases --------------------------------------------------------------
    async def _route_lease_request(
        self, body: bytes, reader: asyncio.StreamReader
    ) -> "tuple[int, dict, bytes] | None":
        """Lease a job to the requesting runner, holding the request up
        to its ``wait`` window while there is nothing it can take.
        None when the runner hung up while parked."""
        payload = _parse_json(body)
        runner = str(payload.get("runner") or "").strip()
        if not runner:
            raise _HttpError(400, "lease request needs a 'runner' id")
        now = time.monotonic()
        self._runners_seen[runner] = now
        try:
            capacity = max(1, int(payload.get("capacity") or 1))
        except (TypeError, ValueError):
            raise _HttpError(400, "lease 'capacity' must be an integer") from None
        deadline = now + _hold_seconds(payload.get("wait"))
        self._runner_capacity[runner] = capacity
        while True:
            if self.draining:
                raise _HttpError(503, "coordinator is draining; no new leases")
            if _hung_up(reader):
                if self.queue.depth:
                    # Others may have left jobs this runner owns for it.
                    self.queue.wake_takers()
                return None
            job_id = None
            if self.leases.active_by_runner().get(runner, 0) < capacity:
                job_id = self.queue.try_take(
                    chooser=self._affinity_chooser(runner)
                )
            if job_id is not None:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return 204, {}, b""
            self._parked[runner] = self._parked.get(runner, 0) + 1
            try:
                await _first_of(
                    remaining,
                    self.queue.arrival.wait(),
                    self._stop_requested.wait(),
                    reader.read(1),  # returns at EOF: the runner hung up
                )
            finally:
                self._parked[runner] -= 1
                if not self._parked[runner]:
                    del self._parked[runner]
        lease = self._start_lease(job_id, runner, time.monotonic())
        job = self.jobs[job_id]
        return _json_response(200, {
            "lease_id": lease.id,
            "job_id": job.id,
            "spec": job.spec,
            "digest": job.digest,
            "ttl": self.leases.ttl,
            "attempt": lease.attempt,
        })

    def _route_heartbeat(self, lease_id: str) -> tuple[int, dict, bytes]:
        now = time.monotonic()
        lease = self.leases.heartbeat(lease_id, now)
        if lease is None:
            return _json_response(410, {
                "error": f"lease {lease_id!r} expired or settled; abandon the job",
            })
        self._runners_seen[lease.runner] = now
        return _json_response(200, {"lease_id": lease.id, "ttl": self.leases.ttl})

    def _route_complete(
        self, lease_id: str, body: bytes
    ) -> tuple[int, dict, bytes]:
        payload = _parse_json(body)
        lease = self._settle_lease(
            lease_id,
            payload.get("result"),
            payload.get("error"),
            float(payload.get("wall") or 0.0),
        )
        if lease is None:
            # The lease expired and the job was redelivered: this result
            # is a late duplicate.  Determinism makes it *identical* to
            # the one the redelivered attempt will produce, but only one
            # attempt may settle the job.
            return _json_response(410, {
                "accepted": False,
                "error": f"lease {lease_id!r} expired; job was redelivered",
            })
        self._runners_seen[lease.runner] = time.monotonic()
        self._absorb_engine_report(lease.runner, payload.get("engine"))
        self._absorb_breaker_report(lease.runner, payload.get("breaker_opens"))
        return _json_response(
            200, {"accepted": True, "status": self.jobs[lease.job_id].status}
        )

    def _absorb_engine_report(self, runner: str, report: object) -> None:
        if not isinstance(report, dict):
            return
        counts = self._runner_engine.setdefault(runner, {})
        for field in ("jobs_run", "hits", "retries", "fallbacks"):
            try:
                counts[field] = counts.get(field, 0) + int(report.get(field, 0))
            except (TypeError, ValueError):
                continue

    def _absorb_breaker_report(self, runner: str, opens: object) -> None:
        """Each runner reports its *cumulative* breaker-open count, so
        absorption takes the max (reports may arrive out of order)."""
        try:
            value = int(opens)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return
        if value > self._runner_breaker_opens.get(runner, 0):
            self._runner_breaker_opens[runner] = value

    # -- affinity ------------------------------------------------------------
    def _live_runners(self) -> list[str]:
        horizon = time.monotonic() - _LIVENESS_TTLS * self.leases.ttl
        return sorted(
            runner
            for runner, seen in self._runners_seen.items()
            if seen >= horizon or runner in self._parked
        )

    def _affinity_chooser(self, runner: str):
        """Pick ``runner``'s job: the oldest it owns, else the oldest
        whose owner has no request parked with a free slot.  A parked
        owner wakes on the same arrival and takes its job itself, so
        with several runners parked a new job goes to its owner."""
        live = self._live_runners()
        capacities = dict(self._runner_capacity)
        active = self.leases.active_by_runner()
        waiting = {
            other
            for other in self._parked
            if other != runner
            and active.get(other, 0) < capacities.get(other, 1)
        }

        def choose(pending):
            owners = {}
            if len(live) > 1:
                for job_id in pending:
                    job = self.jobs.get(job_id)
                    if job is None:
                        continue
                    owners[job_id] = _owner(job.digest, live, capacities)
                    if owners[job_id] == runner:
                        return job_id
            # Work-conserving fallback: owning nothing pending never
            # means idling while work waits.
            for job_id in pending:
                if owners.get(job_id) not in waiting:
                    return job_id
            return None

        return choose

    # -- store proxy ---------------------------------------------------------
    def _route_store(
        self, method: str, path: str, headers: dict, body: bytes
    ) -> tuple[int, dict, bytes]:
        if self.store is None:
            raise _HttpError(503, "coordinator has no shared store configured")
        backend = self.store.backend
        if path == "/v1/store":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            stats = backend.stats()
            return _json_response(200, {
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
                "backend": backend.location(),
            })
        if path == "/v1/store/prune":
            if method != "POST":
                raise _HttpError(405, f"{method} not allowed on {path}")
            removed = backend.prune()
            self.m_proxy.inc(op="prune", outcome="ok")
            return _json_response(200, {
                "entries": removed.entries,
                "total_bytes": removed.total_bytes,
            })
        rest = path[len("/v1/store/"):]
        if rest.endswith("/quarantine"):
            key = rest[: -len("/quarantine")]
            if method != "POST":
                raise _HttpError(405, f"{method} not allowed on {path}")
            _check_key(key)
            backend.quarantine(key)
            self.m_proxy.inc(op="quarantine", outcome="ok")
            return 204, {}, b""
        key = rest
        _check_key(key)
        if method == "GET":
            blob = backend.read(key)
            if blob is None:
                self.m_proxy.inc(op="get", outcome="miss")
                raise _HttpError(404, f"no store entry {key[:12]}")
            self.m_proxy.inc(op="get", outcome="hit")
            return 200, {"Content-Type": "application/octet-stream"}, blob
        if method == "PUT":
            existed = backend.contains(key)
            if existed and headers.get("if-none-match", "").strip() == "*":
                # Conditional put: the content-addressed blob is already
                # here, so the upload is redundant — not a duplicate.
                self.m_proxy.inc(op="put", outcome="skipped")
                self.m_conditional_skips.inc()
                return 412, {}, b""
            try:
                backend.write(key, body)
            except OSError as exc:
                self.m_proxy.inc(op="put", outcome="error")
                raise _HttpError(500, f"store write failed: {exc}") from None
            self.m_proxy.inc(op="put", outcome="ok")
            if existed:
                self.m_duplicate_puts.inc()
            return 204, {}, b""
        raise _HttpError(405, f"{method} not allowed on {path}")

    # -- views ---------------------------------------------------------------
    def _cluster_view(self) -> dict:
        now = time.monotonic()
        active = self.leases.active_by_runner()
        runners = {}
        for runner, seen in sorted(self._runners_seen.items()):
            engine = self._runner_engine.get(runner, {})
            runners[runner] = {
                "active_leases": active.get(runner, 0),
                "capacity": self._runner_capacity.get(runner, 1),
                "granted": self.leases.granted.get(runner, 0),
                "completed": self.leases.completed.get(runner, 0),
                "sims": engine.get("jobs_run", 0),
                "cache_hits": engine.get("hits", 0),
                "breaker_opens": self._runner_breaker_opens.get(runner, 0),
                "parked": self._parked.get(runner, 0),
                "last_seen_seconds": round(now - seen, 3),
                "live": runner in self._live_runners(),
            }
        return {
            "lease_ttl": self.leases.ttl,
            "incarnation": self.incarnation,
            "queue_depth": self.queue.depth,
            "active_leases": len(self.leases),
            "expirations": self.leases.expirations,
            "redeliveries": self.leases.redeliveries,
            "late_completions": self.leases.late_completions,
            "resume_recoveries": self.resume_recoveries,
            "runners": runners,
        }

    def _health(self) -> dict:
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "role": "coordinator",
            "queue_depth": self.queue.depth,
            "inflight": len(self.leases),
            "workers": self.config.workers,
            "jobs": by_status,
            "store": self.store is not None,
            "active_leases": len(self.leases),
            "runners_live": len(self._live_runners()),
        }


def _owner(
    digest: str,
    live_runners: list[str],
    capacities: "dict[str, int] | None" = None,
) -> str:
    """Capacity-weighted rendezvous hashing: the live runner with the
    highest score for this digest owns it — stable under runner churn
    (only keys owned by a departed runner move).

    Weighting follows the classic WRH construction: hash the
    (digest, runner) pair to a uniform ``u`` in (0, 1) and score
    ``-capacity / ln(u)``.  A runner with capacity *k* then owns *k*
    times its fair share of digests in expectation.  The score is
    monotone increasing in ``u``, so with equal capacities the choice
    degenerates to plain max-hash rendezvous — identical routing to
    clusters that never declare capacities.
    """
    capacities = capacities or {}

    def score(runner: str) -> float:
        raw = int(
            hashlib.sha256(f"{digest}:{runner}".encode()).hexdigest(), 16
        )
        u = (raw + 1) / (2**256 + 1)  # uniform in (0, 1), never 0 or 1
        return -max(1, capacities.get(runner, 1)) / math.log(u)

    return max(live_runners, key=score)


def _hold_seconds(raw: object) -> float:
    """A lease request's ``wait`` window, clamped to [0, MAX_HOLD]."""
    try:
        seconds = float(raw or 0.0)
    except (TypeError, ValueError):
        raise _HttpError(400, "lease 'wait' must be a number") from None
    if math.isnan(seconds):
        raise _HttpError(400, "lease 'wait' must be a number")
    return min(max(seconds, 0.0), MAX_HOLD)


def _check_key(key: str) -> None:
    if not _KEY_RE.fullmatch(key):
        raise _HttpError(400, f"malformed store key {key[:40]!r}")


def _parse_json(body: bytes) -> dict:
    if not body:
        return {}
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise _HttpError(400, "request body is not valid JSON") from None
    if not isinstance(decoded, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return decoded


def run_coordinator(config: CoordinatorConfig) -> int:
    """Blocking entry point for ``stfm-sim serve`` and ``stfm-sim
    coordinator``."""
    asyncio.run(ClusterCoordinator(config).run())
    return 0
