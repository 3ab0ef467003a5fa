"""BLISS: the Blacklisting Memory Scheduler (extension).

Subramanian et al. ("The Blacklisting Memory Scheduler", ICCD 2014;
journal version TPDS 2016) follow up on STFM/PAR-BS with a deliberately
minimal design: instead of computing per-thread slowdowns (STFM's
register file) or forming batches (PAR-BS), the controller merely
observes *consecutive service*: a counter tracks how many requests in a
row were serviced from the same application, and once the streak exceeds
the *blacklisting threshold* the application is blacklisted.
Non-blacklisted applications are strictly prioritized; the blacklist is
cleared periodically so no application is penalized forever.

The state is two registers plus one bit per hardware thread — far
simpler than STFM — yet the scheme breaks the row-hit capture that makes
FR-FCFS unfair: a streaming thread that monopolizes service is demoted
after ``threshold`` consecutive requests, letting interleaved threads
through.

Priority order: non-blacklisted first, then row-hit (column) first, then
oldest first.  Parameter defaults follow the paper: a blacklisting
threshold of 4 consecutive requests and a clearing interval of 10000
DRAM cycles.
"""

from __future__ import annotations

from repro.dram.commands import CommandCandidate
from repro.schedulers.base import CLASS_RANK, SchedulingPolicy


class BlissPolicy(SchedulingPolicy):
    """Blacklisting memory scheduler."""

    name = "BLISS"

    def __init__(
        self,
        num_threads: int,
        threshold: int = 4,
        clearing_interval: int = 10_000,
    ) -> None:
        """Create the policy.

        Args:
            num_threads: Threads sharing the memory system.
            threshold: Consecutive serviced requests from one thread
                beyond which it is blacklisted (4 in the paper).
            clearing_interval: DRAM cycles between blacklist clears
                (10000 in the paper).
        """
        super().__init__()
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if clearing_interval < 1:
            raise ValueError("clearing_interval must be at least 1")
        self.num_threads = num_threads
        self.threshold = threshold
        self.clearing_interval = clearing_interval
        # The paper's two registers: the application id of the last
        # serviced request and the length of the current service streak.
        self._streak_thread: int | None = None
        self._streak = 0
        # One bit per hardware thread, and the class it gives the
        # thread in select's ranking (blacklisted threads rank lower).
        self._blacklisted = [False] * num_threads
        self.class_of = [CLASS_RANK] * num_threads
        # DRAM cycles since the last blacklist clear.
        self._ticks = 0
        # Diagnostics.
        self.blacklist_events = 0
        self.clears = 0

    # -- per-cycle timer --------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        self._ticks += 1
        if self._ticks >= self.clearing_interval:
            self._ticks = 0
            self._clear()

    def _clear(self) -> None:
        self.clears += 1
        for thread in range(self.num_threads):
            self._blacklisted[thread] = False
            self.class_of[thread] = CLASS_RANK

    # -- prioritization ---------------------------------------------------
    def priority_key(self, candidate: CommandCandidate, now: int):
        return (
            0 if self._blacklisted[candidate.thread_id] else 1,
            1 if candidate.is_column else 0,
            -candidate.arrival,
        )

    # -- event hooks ------------------------------------------------------
    def on_request_completed(self, request, now: int) -> None:
        """A request was serviced: update the streak registers."""
        thread = request.thread_id
        if thread == self._streak_thread:
            self._streak += 1
            if self._streak > self.threshold and not self._blacklisted[thread]:
                self._blacklisted[thread] = True
                self.class_of[thread] = 0
                self.blacklist_events += 1
        else:
            self._streak_thread = thread
            self._streak = 1

    @property
    def blacklisted_threads(self) -> list[int]:
        """Currently blacklisted thread ids (diagnostics)."""
        return [t for t in range(self.num_threads) if self._blacklisted[t]]
