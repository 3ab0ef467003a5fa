"""The cluster runner: lease, execute, heartbeat, report.

A runner is a plain blocking process — no asyncio — looping over::

    POST /v1/leases {"wait": poll}  -> a job (or 204: ask again at once)
    execute_spec(...)                  the same engine path as `serve`
    POST /v1/leases/<id>/complete   -> result or error, + engine deltas

A lease request is a long poll: the coordinator holds it for up to
``poll`` seconds (its hold window) and answers the moment a job can be
granted, so a submitted job starts without waiting out an idle sleep,
and a longer ``poll`` only means fewer empty round trips.  A ``204``
says the window ended empty; the runner asks again at once.  Only a
failed request (coordinator unreachable, breaker open, draining ``503``)
waits before the next one, for ``poll`` or the breaker's cooldown,
whichever is longer.

While a job executes, a daemon thread heartbeats the lease every
``ttl / 3`` seconds.  A ``410 Gone`` heartbeat means the lease expired
(the coordinator redelivered the job): the runner keeps executing —
the engine path is not interruptible mid-simulation — but its eventual
completion will be answered 410 and discarded, so nothing it produces
after losing the lease can reach job state.

Jobs execute on a thread pool of width ``--capacity N`` (default 1):
the runner holds up to N leases at once and asks for the next one as
soon as a slot frees.  It declares the capacity in every lease request
so the coordinator can weight rendezvous routing and refuse
over-grants.

Every coordinator round trip goes through a
:class:`~repro.resilience.CircuitBreaker`: a coordinator that
disappears (crash, partition, restart) opens the breaker after a few
consecutive connection failures, and the runner backs off
exponentially (deterministic per-runner jitter) instead of spinning on
``connect()``.  Half-open probes rediscover the coordinator the moment
it returns — which is what lets a mid-sweep ``kill -9`` + restart of
the coordinator finish the sweep.

Results flow through the shared store, not the completion payload
alone: by default the runner mounts the coordinator's store proxy
(:class:`~repro.engine.backends.HttpStoreBackend`), so sub-job results
land in the shared content-addressed store as they finish.  A
redelivered job therefore resumes from cache hits — at-least-once
delivery without duplicate simulation work.

SIGTERM half-closes a parked lease request (the coordinator sees the
runner leave and grants it nothing), finishes the current job(s),
reports them, and exits; ``kill -9`` is the lease-expiry path the
cluster is designed around.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro import faults
from repro.engine import session_report
from repro.engine.backends import HttpStoreBackend
from repro.engine.store import CacheStore
from repro.resilience import CircuitBreaker
from repro.service.client import ServiceClient
from repro.service.workers import execute_spec


#: Seconds a completion is retried against an unreachable coordinator
#: before the runner relies on lease-expiry redelivery.
REPORT_WINDOW = 10.0


@dataclass(frozen=True)
class RunnerConfig:
    """Everything ``stfm-sim runner`` needs."""

    coordinator: str = "http://127.0.0.1:8765"
    runner_id: "str | None" = None  # default: <hostname>-<pid>
    #: "proxy" mounts the coordinator's store over HTTP; any other
    #: backend location (directory, sqlite file, URL) is used directly;
    #: None disables the shared store.
    store: "str | None" = "proxy"
    engine_jobs: int = 1
    poll: float = 0.5  # hold window of one lease request, seconds
    max_jobs: "int | None" = None  # exit after N jobs (tests, batch mode)
    capacity: int = 1  # concurrent leases this runner will hold

    def resolved_id(self) -> str:
        return self.runner_id or f"{socket.gethostname()}-{os.getpid()}"


class ClusterRunner:
    """One runner process bound to one coordinator."""

    def __init__(self, config: RunnerConfig) -> None:
        if config.capacity < 1:
            raise ValueError("runner capacity must be at least 1")
        self.config = config
        self.id = config.resolved_id()
        self.client = ServiceClient(config.coordinator, timeout=30.0)
        # Lease requests only, so that stopping can hang up the parked
        # one without cutting a heartbeat or a report short.
        self.lease_client = ServiceClient(
            config.coordinator, timeout=config.poll + 30.0
        )
        self.breaker = CircuitBreaker(seed=self.id)
        if config.store == "proxy":
            self.store: "CacheStore | None" = CacheStore(
                HttpStoreBackend(config.coordinator)
            )
        elif config.store:
            self.store = CacheStore(config.store)
        else:
            self.store = None
        self._stop = threading.Event()
        self._count_lock = threading.Lock()
        self.jobs_completed = 0

    def request_stop(self) -> None:
        """Signal-safe: hang up a parked lease request, finish the
        current job(s), then exit the loop."""
        self._stop.set()
        self.lease_client.transport.close()

    def _job_finished(self) -> None:
        with self._count_lock:
            self.jobs_completed += 1

    # -- main loop -----------------------------------------------------------
    def run(self) -> int:
        """Lease/execute until stopped; returns a process exit code."""
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(sig, lambda *_: self.request_stop())
            except ValueError:
                pass  # not the main thread (embedded in tests)
        print(
            f"runner {self.id} polling {self.config.coordinator} "
            f"(capacity {self.config.capacity})",
            flush=True,
        )
        self._run_loop()
        print(
            f"runner {self.id} stopping after "
            f"{self.jobs_completed} job(s)",
            flush=True,
        )
        if self.store is not None:
            self.store.close()
        return 0

    def _run_loop(self) -> None:
        """Lease into free slots of a ``capacity``-wide thread pool.

        A slot is held from the lease request until the job's report,
        so the loop asks for the next lease the moment one frees.
        Leaving the loop (``max_jobs`` leased, or a stop request)
        finishes and reports every job in flight.
        """
        max_jobs = self.config.max_jobs
        slots = threading.Semaphore(self.config.capacity)
        leased = 0
        with ThreadPoolExecutor(
            max_workers=self.config.capacity,
            thread_name_prefix=f"{self.id}-exec",
        ) as pool:
            while max_jobs is None or leased < max_jobs:
                slots.acquire()
                if self._stop.is_set():
                    break
                reply = self._post(
                    "/v1/leases",
                    {
                        "runner": self.id,
                        "capacity": self.config.capacity,
                        "wait": self.config.poll,
                    },
                    client=self.lease_client,
                )
                if reply and reply[0] == 200 and isinstance(reply[1], dict):
                    leased += 1
                    pool.submit(self._execute_guarded, reply[1], slots)
                    continue
                slots.release()
                if not reply or reply[0] != 204:
                    self._stop.wait(self._idle_sleep())

    def _idle_sleep(self) -> float:
        """Wait after a failed lease request: the poll window,
        stretched to the breaker's cooldown while the coordinator is
        away (no tight retry loop against a dead endpoint)."""
        return max(
            self.config.poll,
            min(self.breaker.seconds_until_probe(time.monotonic()), 5.0),
        )

    def _post(
        self, path: str, body: "dict | None" = None,
        client: "ServiceClient | None" = None,
    ) -> "tuple[int, dict | str] | None":
        """One coordinator round trip through the breaker: (status,
        decoded body), or None when the breaker is open or the
        coordinator is unreachable."""
        if not self.breaker.allow(time.monotonic()):
            return None
        try:
            status, _headers, decoded = (client or self.client).request(
                "POST", path, body=body
            )
        except OSError:
            self.breaker.record_failure(time.monotonic())
            return None
        self.breaker.record_success()
        return status, decoded

    # -- execution -----------------------------------------------------------
    def _execute_guarded(
        self, lease: dict, slots: threading.Semaphore
    ) -> None:
        """Thread-pool wrapper: an injected service crash must take the
        whole runner down (the lease-expiry scenario), not one thread.
        The slot frees only after the job is counted and reported."""
        try:
            self._execute(lease)
        except SystemExit:
            os._exit(1)
        except Exception:  # keep leasing; the lost lease expires
            traceback.print_exc()
        finally:
            self._job_finished()
            slots.release()

    def _execute(self, lease: dict) -> None:
        lease_id = lease["lease_id"]
        ttl = float(lease.get("ttl") or 15.0)
        stop_heartbeat = threading.Event()
        lost = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease_id, ttl, stop_heartbeat, lost),
            daemon=True,
        )
        beater.start()
        before = session_report().snapshot()
        started = time.monotonic()
        result: "dict | None" = None
        error: "str | None" = None
        try:
            # Same crash semantics as the single-process service: an
            # injected `service` fault takes the whole runner down,
            # which is exactly the lease-expiry scenario.  Keyed by
            # delivery attempt so a redelivered job draws fresh — a
            # job-only key at rate 1.0 would crash every redelivery.
            fault_key = (
                f"{lease.get('job_id', lease_id)}"
                f"#a{lease.get('attempt', 1)}"
            )
            if faults.fires("service", fault_key):
                raise SystemExit("injected service crash")
            result = execute_spec(
                lease["spec"],
                store=self.store,
                engine_jobs=self.config.engine_jobs,
            )
        except SystemExit:
            raise
        except BaseException as exc:  # report, don't die: leases must settle
            error = f"{type(exc).__name__}: {exc}"
        finally:
            stop_heartbeat.set()
        beater.join(timeout=5.0)
        if lost.is_set():
            # The heartbeat loop saw a 410: the lease expired and the
            # job was redelivered.  Posting the completion would only
            # earn another 410 (the contract's late-duplicate answer),
            # so drop it here and let the new attempt settle the job.
            print(
                f"runner {self.id}: lease {lease_id} lost; "
                f"discarding result",
                flush=True,
            )
            return
        wall = time.monotonic() - started
        delta = session_report().since(before)
        body = {
            "runner": self.id,
            "wall": wall,
            "breaker_opens": self.breaker.opens,
            "engine": {
                "jobs_run": delta.jobs_run,
                "hits": delta.hits,
                "retries": delta.retries,
                "fallbacks": delta.fallbacks,
            },
        }
        if error is None:
            body["result"] = result
        else:
            body["error"] = error
        self._report(lease_id, body)

    def _report(self, lease_id: str, body: dict) -> None:
        """Post the completion; a 410 means the lease expired and the
        job was redelivered — the payload is correctly discarded.  An
        unreachable coordinator is retried through the breaker (paced
        by its backoff), then the result is dropped: lease expiry
        redelivers the job, and the shared store already holds the
        sub-job results."""
        deadline = time.monotonic() + REPORT_WINDOW
        while time.monotonic() < deadline:
            if self._post(f"/v1/leases/{lease_id}/complete", body):
                return
            # A sleep, not ``_stop.wait``: a stopping runner still
            # reports, and ``_stop`` is set then.
            time.sleep(
                min(self.breaker.seconds_until_probe(time.monotonic()), 0.5)
                or 0.05
            )
        print(
            f"runner {self.id}: could not report lease {lease_id}; "
            f"relying on redelivery",
            flush=True,
        )

    def _heartbeat_loop(
        self,
        lease_id: str,
        ttl: float,
        stop: threading.Event,
        lost: threading.Event,
    ) -> None:
        interval = max(0.05, ttl / 3.0)
        while not stop.wait(interval):
            # An open breaker or a lost beat skips the beat, not the
            # job; the next beat may land in time.
            reply = self._post(f"/v1/leases/{lease_id}/heartbeat")
            if reply and reply[0] == 410:
                lost.set()
                return


def run_runner(config: RunnerConfig) -> int:
    """Blocking entry point for ``stfm-sim runner``."""
    return ClusterRunner(config).run()
