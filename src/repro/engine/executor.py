"""Job execution: cache resolution, worker pool, timeout, retry, report.

The executor resolves every requested job against its two cache layers
(per-executor memory, then the on-disk :class:`ResultStore`) and runs
the misses — in-process when ``jobs == 1`` (the serial degenerate case,
bit-identical to the parallel path and friendly to debuggers),
or on a pool of worker processes otherwise.

Parallel execution is process-per-job with bounded concurrency rather
than ``multiprocessing.Pool``: a dedicated process per job is what makes
a *per-job timeout* (terminate the process) and *crash detection* (exit
without a result on the pipe) robust — a crashed pool worker cannot hang
the queue, it just costs one bounded retry.  Worker *exceptions* are
deterministic simulation bugs and fail fast instead of retrying.

Hardening (exercised by :mod:`repro.faults` under ``--inject``):

* retry attempts are spaced by exponential backoff with deterministic
  jitter, so a struggling machine is not hammered in lockstep;
* reaping escalates SIGTERM → SIGKILL for workers that ignore
  ``terminate()``, so a wedged worker can never hang the batch;
* when process *spawning* itself fails repeatedly (fd/PID exhaustion),
  the executor degrades gracefully to in-process serial execution;
* when fault injection is active and a job burns its whole retry
  budget on crashes/timeouts, one final "clean-room" attempt runs with
  injection disabled — injected chaos can delay a sweep but never
  fail it, while a genuinely crashing job still fails the batch.

Results travel back over a pipe as JSON-serializable payloads, so the
parallel path returns exactly what the serial path computes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from repro import faults, resilience
from repro.engine.jobs import execute_job
from repro.engine.store import ResultStore

#: Exit status of a worker killed by an injected crash (tests assert it).
INJECTED_CRASH_EXIT = 73

#: Seconds to wait for a terminated worker before escalating to kill().
_REAP_GRACE = 5.0

#: Consecutive process-spawn failures before degrading to serial.
_SPAWN_FAILURE_LIMIT = 3


class JobFailedError(RuntimeError):
    """A job failed permanently (exception, or crash/timeout past retry)."""

    def __init__(self, job: Any, reason: str) -> None:
        super().__init__(f"job '{job.describe()}' failed: {reason}")
        self.job = job
        self.reason = reason


@dataclass
class EngineReport:
    """Counters of one executor's (or the whole session's) activity."""

    jobs_total: int = 0
    jobs_run: int = 0
    hits_memory: int = 0
    hits_disk: int = 0
    jobs_failed: int = 0
    retries: int = 0
    fallbacks: int = 0
    wall_time: float = 0.0
    sim_time: float = 0.0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    @property
    def speedup(self) -> float:
        """Aggregate simulation time over wall time — parallelism plus
        caching folded into one 'vs cold serial' factor."""
        return self.sim_time / self.wall_time if self.wall_time > 0 else 0.0

    def add(self, other: "EngineReport") -> None:
        self.jobs_total += other.jobs_total
        self.jobs_run += other.jobs_run
        self.hits_memory += other.hits_memory
        self.hits_disk += other.hits_disk
        self.jobs_failed += other.jobs_failed
        self.retries += other.retries
        self.fallbacks += other.fallbacks
        self.wall_time += other.wall_time
        self.sim_time += other.sim_time

    def snapshot(self) -> "EngineReport":
        return replace(self)

    def since(self, earlier: "EngineReport") -> "EngineReport":
        return EngineReport(
            jobs_total=self.jobs_total - earlier.jobs_total,
            jobs_run=self.jobs_run - earlier.jobs_run,
            hits_memory=self.hits_memory - earlier.hits_memory,
            hits_disk=self.hits_disk - earlier.hits_disk,
            jobs_failed=self.jobs_failed - earlier.jobs_failed,
            retries=self.retries - earlier.retries,
            fallbacks=self.fallbacks - earlier.fallbacks,
            wall_time=self.wall_time - earlier.wall_time,
            sim_time=self.sim_time - earlier.sim_time,
        )

    def summary(self) -> str:
        parts = [
            f"{self.jobs_total} job(s): {self.jobs_run} simulated, "
            f"{self.hits} cached ({self.hits_disk} disk, "
            f"{self.hits_memory} memory)"
        ]
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} fallback(s)")
        if self.jobs_failed:
            parts.append(f"{self.jobs_failed} FAILED")
        parts.append(
            f"sim {self.sim_time:.1f}s in {self.wall_time:.1f}s wall"
            + (f" ({self.speedup:.1f}x)" if self.speedup else "")
        )
        return "; ".join(parts)


#: Process-wide aggregate across every executor — lets the CLI report
#: engine activity without threading runner objects through the
#: experiment registry.  Updated under a lock: the simulation service
#: runs several executors on concurrent worker threads.
_SESSION = EngineReport()
_SESSION_LOCK = threading.Lock()


def session_report() -> EngineReport:
    return _SESSION


def reset_session_report() -> None:
    global _SESSION
    with _SESSION_LOCK:
        _SESSION = EngineReport()


def _worker_main(job, conn, attempt: int = 1, inject: bool = True) -> None:
    try:
        if inject:
            key = f"{job.cache_key()}:{attempt}"
            if faults.fires("crash", key):
                conn.close()
                os._exit(INJECTED_CRASH_EXIT)
            if faults.fires("hang", key):
                time.sleep(faults.HANG_SECONDS)
        else:
            # Clean-room fallback attempt: strip the injection toggle so
            # a fault-induced retry storm cannot fail the batch.
            os.environ.pop(faults.FAULTS_ENV, None)
        started = time.perf_counter()
        payload = execute_job(job)
        conn.send(("ok", payload, time.perf_counter() - started))
    except BaseException as exc:  # report, never propagate out of a worker
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}", 0.0))
        except Exception:  # simlint: disable=SIM007
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    proc: Any
    conn: Any
    job: Any
    started: float
    attempt: int = 1
    inject: bool = True


@dataclass
class _Pending:
    """A job waiting for a worker slot (possibly backing off)."""

    key: str
    job: Any
    not_before: float = 0.0  # perf_counter() timestamp
    clean: bool = False  # run the next attempt with injection disabled


class JobExecutor:
    """Runs batches of jobs through the cache layers and a worker pool.

    Args:
        jobs: Worker processes; 1 = serial in-process execution.
        store: Optional :class:`ResultStore`, or a location string for one
            (a directory, ``sqlite:`` path or ``http://`` proxy URL).
        timeout: Per-job wall-clock limit in seconds (parallel mode
            only — the serial path cannot interrupt a job).
        retries: Extra attempts after a worker crash or timeout.
        backoff: Base delay (seconds) between retry attempts; attempt
            *n* waits :func:`repro.resilience.backoff` — ``backoff *
            2^(n-1)`` with a deterministic +/-15% jitter, capped at
            ``backoff_cap``.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: "ResultStore | str | None" = None,
        timeout: "float | None" = None,
        retries: int = 1,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        if jobs < 1:
            raise ValueError("need at least one worker")
        if retries < 0:
            raise ValueError("retries cannot be negative")
        if backoff < 0:
            raise ValueError("backoff cannot be negative")
        self.jobs = jobs
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.memory: dict[str, dict] = {}
        self.report = EngineReport()

    # -- public API ---------------------------------------------------------
    def run(self, job_list: Iterable[Any]) -> dict[str, dict]:
        """Execute jobs (deduplicated by cache key) → {cache_key: payload}.

        Raises :class:`JobFailedError` as soon as any job fails
        permanently; outstanding workers are terminated.
        """
        started = time.perf_counter()
        unique: dict[str, Any] = {}
        for job in job_list:
            unique.setdefault(job.cache_key(), job)

        payloads: dict[str, dict] = {}
        to_run: list[tuple[str, Any]] = []
        batch = EngineReport(jobs_total=len(unique))
        for key, job in unique.items():
            if key in self.memory:
                payloads[key] = self.memory[key]
                batch.hits_memory += 1
                continue
            stored = self.store.get(key) if self.store is not None else None
            if stored is not None:
                payloads[key] = self.memory[key] = stored
                batch.hits_disk += 1
            else:
                to_run.append((key, job))

        try:
            if to_run:
                if self.jobs == 1:
                    fresh = self._run_serial(to_run, batch)
                else:
                    fresh = self._run_parallel(to_run, batch)
                for key, payload in fresh.items():
                    payloads[key] = self.memory[key] = payload
                    if self.store is not None:
                        job = unique[key]
                        self.store.put(
                            key, payload,
                            describe=job.describe(), kind=job.kind,
                        )
        finally:
            batch.wall_time = time.perf_counter() - started
            self.report.add(batch)
            with _SESSION_LOCK:
                _SESSION.add(batch)
        return payloads

    # -- serial path --------------------------------------------------------
    def _run_inline(self, job, batch: EngineReport) -> dict:
        """Execute one job in this process, with report bookkeeping."""
        started = time.perf_counter()
        try:
            payload = execute_job(job)
        except Exception as exc:
            batch.jobs_failed += 1
            raise JobFailedError(
                job, f"{type(exc).__name__}: {exc}"
            ) from exc
        batch.sim_time += time.perf_counter() - started
        batch.jobs_run += 1
        return payload

    def _run_serial(
        self, to_run: list[tuple[str, Any]], batch: EngineReport
    ) -> dict[str, dict]:
        results: dict[str, dict] = {}
        for key, job in to_run:
            results[key] = self._run_inline(job, batch)
        return results

    # -- parallel path ------------------------------------------------------
    def _run_parallel(
        self, to_run: list[tuple[str, Any]], batch: EngineReport
    ) -> dict[str, dict]:
        ctx = self._context()
        pending = deque(_Pending(key, job) for key, job in to_run)
        attempts: dict[str, int] = {}
        running: dict[str, _Running] = {}
        results: dict[str, dict] = {}
        failure: "JobFailedError | None" = None
        spawn_failures = 0
        degraded = False

        try:
            while (pending or running) and failure is None:
                while pending and len(running) < self.jobs:
                    entry = self._next_eligible(pending)
                    if entry is None:
                        break
                    if degraded:
                        results[entry.key] = self._run_inline(
                            entry.job, batch
                        )
                        continue
                    attempts[entry.key] = attempts.get(entry.key, 0) + 1
                    try:
                        running[entry.key] = self._spawn(
                            ctx, entry.job, attempts[entry.key],
                            inject=not entry.clean,
                        )
                    except OSError:
                        spawn_failures += 1
                        attempts[entry.key] -= 1
                        pending.appendleft(entry)
                        if spawn_failures >= _SPAWN_FAILURE_LIMIT:
                            degraded = True
                        break
                    spawn_failures = 0
                progressed = False
                for key in list(running):
                    state = running[key]
                    outcome = self._poll(state)
                    if outcome is None:
                        continue
                    progressed = True
                    del running[key]
                    self._reap(state)
                    status, value, duration = outcome
                    if status == "ok":
                        results[key] = value
                        batch.jobs_run += 1
                        batch.sim_time += duration
                    elif status == "error":
                        # Deterministic simulation exception: retrying
                        # would fail identically — fail fast.
                        batch.jobs_failed += 1
                        failure = JobFailedError(state.job, value)
                        break
                    elif attempts[key] <= self.retries:
                        batch.retries += 1
                        pending.append(
                            self._backed_off(key, state.job, attempts[key])
                        )
                    elif faults.active_plan() is not None and state.inject:
                        # Retry budget burned under fault injection: one
                        # final attempt with injection disabled, so chaos
                        # can delay a sweep but never fail it.
                        batch.fallbacks += 1
                        pending.append(
                            self._backed_off(
                                key, state.job, attempts[key], clean=True
                            )
                        )
                    else:
                        batch.jobs_failed += 1
                        failure = JobFailedError(state.job, value)
                        break
                if not progressed:
                    time.sleep(0.005)
        finally:
            for state in running.values():
                state.proc.terminate()
                self._reap(state)
        if failure is not None:
            raise failure
        return results

    def _next_eligible(self, pending: "deque[_Pending]") -> "_Pending | None":
        """Pop the first pending job whose backoff window has passed."""
        now = time.perf_counter()
        for _ in range(len(pending)):
            if pending[0].not_before <= now:
                return pending.popleft()
            pending.rotate(-1)
        return None

    def _backed_off(
        self, key: str, job, attempt: int, clean: bool = False
    ) -> _Pending:
        """Requeue entry with exponential backoff + deterministic jitter,
        keyed by the (key, attempt) pair so replayed runs pace
        identically."""
        delay = resilience.backoff(
            self.backoff, attempt, self.backoff_cap,
            f"{key}:{attempt - 1}:backoff",
        )
        return _Pending(
            key, job, not_before=time.perf_counter() + delay, clean=clean
        )

    @staticmethod
    def _context():
        # fork is both the cheapest start method and the one that lets
        # worker processes inherit registered custom job kinds.
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _spawn(self, ctx, job, attempt: int = 1, inject: bool = True) -> _Running:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(job, child_conn, attempt, inject),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Running(
            proc, parent_conn, job, time.perf_counter(),
            attempt=attempt, inject=inject,
        )

    def _poll(self, state: _Running):
        """One look at a worker: result tuple, crash/timeout tuple, or
        None while it is still running."""
        if state.inject and faults.fires(
            "timeout", f"{state.job.cache_key()}:{state.attempt}"
        ):
            state.proc.terminate()
            return ("timeout", "injected timeout", 0.0)
        if state.conn.poll(0):
            return self._recv(state)
        if not state.proc.is_alive():
            # The worker may have exited right after flushing its result;
            # give the pipe one short grace poll before declaring a crash.
            if state.conn.poll(0.2):
                return self._recv(state)
            return (
                "crash",
                f"worker crashed (exit code {state.proc.exitcode})",
                0.0,
            )
        if (
            self.timeout is not None
            and time.perf_counter() - state.started > self.timeout
        ):
            state.proc.terminate()
            return ("timeout", f"timed out after {self.timeout:g}s", 0.0)
        return None

    def _recv(self, state: _Running):
        try:
            return state.conn.recv()
        except (EOFError, OSError):
            return (
                "crash",
                f"worker crashed (pipe closed, exit code {state.proc.exitcode})",
                0.0,
            )

    @staticmethod
    def _reap(state: _Running) -> None:
        """Join a finished/terminated worker, escalating to SIGKILL.

        ``terminate()`` sends SIGTERM, which a worker stuck in native
        code — or one that installed a SIGTERM handler — can ignore; a
        bounded join followed by ``kill()`` guarantees the reap returns.
        """
        state.conn.close()
        state.proc.join(_REAP_GRACE)
        if state.proc.is_alive():
            state.proc.kill()
            state.proc.join(_REAP_GRACE)
