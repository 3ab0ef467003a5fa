"""Bounded admission queue with backpressure and targeted takes.

The service never buffers unbounded work: admission happens on the
event loop (single-threaded, so check-then-put is race-free), and a
full queue rejects the submission — the HTTP layer turns that into
``429 Too Many Requests`` with a ``Retry-After`` estimate derived from
observed job wall times.  Clients that honor the hint converge on the
service's actual throughput instead of timing out deep in a queue.

The coordinator leases every job it takes off the queue, through one
of two consumers: its in-process runners (``stfm-sim serve``)
``await``\\ s :meth:`AdmissionQueue.get` for the oldest job, while a
lease request over HTTP takes one synchronously via
:meth:`AdmissionQueue.try_take` — which may pick a *specific* pending
job (cache-affinity routing by spec digest), not just the head.  Both
wait on :attr:`AdmissionQueue.arrival` when there is nothing to take:
:meth:`get` inside, a held lease request in the coordinator.  The next
:meth:`admit` or :meth:`requeue` sets it.
:meth:`AdmissionQueue.requeue` returns an expired lease's job to the
front without re-counting it, so :meth:`join` still means "every
admitted job reached a terminal state exactly once".
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Sequence


class QueueFullError(Exception):
    """Admission rejected: the queue is at capacity."""

    def __init__(self, retry_after: int) -> None:
        super().__init__(f"queue full; retry after {retry_after}s")
        self.retry_after = retry_after


class AdmissionQueue:
    """A deque of job ids with explicit admission control.

    Built on a deque plus an arrival event (rather than a plain
    ``asyncio.Queue``) so synchronous consumers can remove arbitrary
    pending entries while async consumers wait for the next one.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("queue limit must be at least 1")
        self.limit = limit
        self._pending: deque[str] = deque()
        self._arrival = asyncio.Event()
        self._unfinished = 0
        self._idle = asyncio.Event()
        self._idle.set()
        # Wall-time bookkeeping for the Retry-After estimate.
        self._completed = 0
        self._total_seconds = 0.0

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet picked up by a consumer."""
        return len(self._pending)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.limit

    @property
    def unfinished(self) -> int:
        """Admitted jobs that have not been marked done yet."""
        return self._unfinished

    def submit(self, job_id: str, inflight: int = 0) -> None:
        """Admit a new job id, or raise :class:`QueueFullError`.

        Args:
            job_id: The job to enqueue.
            inflight: Currently-executing jobs, folded into the
                Retry-After estimate of a rejection.
        """
        if self.full:
            raise QueueFullError(self.retry_after(inflight))
        self.admit(job_id)

    def admit(self, job_id: str) -> None:
        """Enqueue a job id regardless of the limit.  Restart recovery
        admits every job it finds, so a smaller limit than the previous
        incarnation's only gates new submissions."""
        self._pending.append(job_id)
        self._unfinished += 1
        self._idle.clear()
        self.wake_takers()

    def requeue(self, job_id: str) -> None:
        """Put a previously-taken job back at the *front* (redelivery
        after a lease expired).  Does not re-count it: ``join`` still
        waits for exactly one completion per admission."""
        self._pending.appendleft(job_id)
        self.wake_takers()

    @property
    def arrival(self) -> asyncio.Event:
        """The event the next :meth:`admit`, :meth:`requeue` or
        :meth:`wake_takers` sets.  A waiter takes it *before* it
        awaits (``queue.arrival.wait()``), so a wake-up between its
        last look at the queue and its wait is never lost."""
        return self._arrival

    def wake_takers(self) -> None:
        """Wake every waiter on :attr:`arrival` to look at the queue
        again; later waiters wait for the next wake-up."""
        self._arrival.set()
        self._arrival = asyncio.Event()

    def retry_after(self, inflight: int = 0) -> int:
        """Seconds until a queue slot plausibly frees up.

        Mean observed job wall time scaled by the backlog, clamped to
        [1, 120]; before any job has completed the estimate is 1s.
        """
        if not self._completed:
            return 1
        mean = self._total_seconds / self._completed
        estimate = mean * max(1, self.depth + inflight)
        return max(1, min(120, int(estimate + 0.5)))

    def observe(self, wall_seconds: float) -> None:
        """Record one completed job's wall time."""
        self._completed += 1
        self._total_seconds += wall_seconds

    async def get(self) -> str:
        """Wait for (and remove) the oldest pending job id."""
        while not self._pending:
            await self._arrival.wait()
        return self._pending.popleft()

    def try_take(
        self,
        chooser: "Callable[[Sequence[str]], str | None] | None" = None,
    ) -> "str | None":
        """Remove and return one pending job id without waiting.

        Args:
            chooser: Given the pending ids (oldest first), returns the
                one to take — or None to take nothing.  Defaults to the
                oldest.

        Returns:
            The taken job id, or None when nothing (acceptable) is
            pending.
        """
        if not self._pending:
            return None
        if chooser is None:
            return self._pending.popleft()
        pick = chooser(tuple(self._pending))
        if pick is None:
            return None
        try:
            self._pending.remove(pick)
        except ValueError:
            return None
        return pick

    def task_done(self) -> None:
        """One admitted job reached a terminal state."""
        if self._unfinished > 0:
            self._unfinished -= 1
        if self._unfinished == 0:
            self._idle.set()

    async def join(self) -> None:
        """Wait until every admitted job has been marked done."""
        await self._idle.wait()
