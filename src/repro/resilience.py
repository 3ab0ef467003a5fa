"""One backoff formula, one retry loop, one circuit breaker.

The service client, the store proxy backend, the cluster runner and the
engine's crash/timeout requeue all pace themselves through this module.
Jitter is a pure function of a caller-chosen key (a job, a request, a
runner id), so peers never retry in lockstep and a replayed run paces
identically.  Stdlib only and free of ``http.client``: the engine
imports it, and ``import repro.engine`` must stay cheap.
"""

from __future__ import annotations

import math
import random
import threading
import time
from typing import Callable, TypeVar

T = TypeVar("T")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class NotSent(ConnectionError):
    """A transport fault that fired before any bytes left the host (an
    injected ``drop`` / ``refused`` / ``latency``): the server never saw
    the request, so resending it is safe for every method."""


def backoff(base: float, attempt: int, cap: float, key: str) -> float:
    """Delay before retry ``attempt`` (1-based), in seconds:
    ``base * 2^(attempt-1)`` times a +/-15% jitter drawn from
    ``random.Random(key)``, capped after the jitter."""
    jitter = random.Random(key).uniform(0.85, 1.15)
    return min(base * 2 ** (attempt - 1) * jitter, cap)


def retry(
    attempt_fn: "Callable[[int], T]", retries: int, base: float,
    retriable: bool, key: str,
) -> T:
    """``attempt_fn(attempt)`` for attempt 1, 2, ... until it returns.

    At most ``retries`` resends, spaced by :func:`backoff`.  A
    :class:`NotSent` error is retried for any call; any other
    ``OSError`` only when ``retriable`` (the call is idempotent: the
    server may already have processed the lost attempt).  The last
    error propagates.
    """
    for attempt in range(1, retries + 2):
        try:
            return attempt_fn(attempt)
        except NotSent:
            if attempt > retries:
                raise
        except OSError:
            if not retriable or attempt > retries:
                raise
        time.sleep(backoff(base, attempt, math.inf, f"{key}#{attempt}"))
    raise AssertionError("unreachable")  # the loop returns or raises


class CircuitBreaker:
    """Failure-counting breaker for one remote endpoint.

    **Closed** until ``failure_threshold`` consecutive failures; then
    **open**: calls are refused locally (no network I/O at all) for a
    cooldown of :func:`backoff` over the consecutive openings, keyed
    ``"<seed>:open:<n>"``; then **half-open**: exactly one probe goes
    through.  Its success closes the breaker and resets the ladder; its
    failure re-opens it with the next-longer cooldown.  Transitions
    happen under one lock, as callers share a breaker across threads.

    Args:
        failure_threshold: Consecutive failures that open the breaker.
        cooldown: Base cooldown after the first opening, seconds.
        max_cooldown: Ceiling for the cooldown ladder.
        seed: Jitter seed.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 0.5,
        max_cooldown: float = 8.0,
        seed: str = "",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown <= 0 or max_cooldown < cooldown:
            raise ValueError("need 0 < cooldown <= max_cooldown")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.max_cooldown = max_cooldown
        self.seed = seed
        self.state = CLOSED
        self.opens = 0  # total openings (the /metrics counter)
        self._consecutive_opens = 0  # backoff ladder position
        self._failures = 0
        self._retry_at = 0.0
        self._lock = threading.Lock()

    # -- queries -------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """Whether a call may go out at ``now``.

        In the open state this flips to half-open once the cooldown has
        elapsed and admits exactly one probe; every other caller is
        refused until that probe settles.
        """
        with self._lock:
            if self.state == CLOSED:
                return True
            if self.state == OPEN and now >= self._retry_at:
                self.state = HALF_OPEN
                return True
            return False

    def seconds_until_probe(self, now: float) -> float:
        """How long until the next call would be admitted (0 = now)."""
        with self._lock:
            if self.state == CLOSED:
                return 0.0
            return max(0.0, self._retry_at - now)

    # -- outcomes ------------------------------------------------------------
    def record_success(self) -> None:
        """Any successful round trip: close and reset the ladder."""
        with self._lock:
            self.state = CLOSED
            self._failures = 0
            self._consecutive_opens = 0

    def record_failure(self, now: float) -> None:
        """One failed round trip (connection error / timeout)."""
        with self._lock:
            self._failures += 1
            if self.state == HALF_OPEN or (
                self.state == CLOSED
                and self._failures >= self.failure_threshold
            ):
                self.state = OPEN
                self.opens += 1
                self._consecutive_opens += 1
                n = self._consecutive_opens
                self._retry_at = now + backoff(
                    self.cooldown, n, self.max_cooldown,
                    f"{self.seed}:open:{n}",
                )

    def describe(self) -> str:
        with self._lock:
            return (
                f"{self.state} (opens={self.opens}, "
                f"failures={self._failures})"
            )
