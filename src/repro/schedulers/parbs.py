"""PAR-BS: Parallelism-Aware Batch Scheduling (extension).

STFM's authors followed it with PAR-BS (Mutlu & Moscibroda, ISCA 2008),
which provides fairness through *request batching* instead of slowdown
estimation; the paper under reproduction is the direct ancestor, so we
include a faithful-in-spirit PAR-BS as an extension scheduler for
head-to-head comparisons (experiment ``extension-parbs``).

Mechanism:

* **Batching** — when no marked requests remain, mark the oldest up to
  ``marking_cap`` outstanding reads of each thread in each bank.  Marked
  requests are strictly prioritized over unmarked ones, which bounds any
  thread's interference-induced wait (no stream can starve a batch).
* **Within a batch** — threads are ranked by the *shortest-job-first*
  heuristic: ascending maximum per-bank marked-request count (the "max"
  rule), ties broken by ascending total marked requests.  Non-intensive
  threads finish their share of the batch quickly and get out of the
  intensive threads' way, preserving each thread's bank-level
  parallelism (requests of one thread are serviced concurrently).
* **Priority order** — marked-first, then row-hit-first, then
  higher-rank-first, then oldest-first.
"""

from __future__ import annotations

from repro.dram.commands import CommandCandidate
from repro.schedulers.base import SchedulingPolicy


class ParBsPolicy(SchedulingPolicy):
    """Parallelism-aware batch scheduler."""

    name = "PAR-BS"
    needs_scan = False  # priorities derive from marks/ranks, not the scan

    def __init__(self, num_threads: int, marking_cap: int = 5) -> None:
        """Create the policy.

        Args:
            num_threads: Threads sharing the memory system.
            marking_cap: Maximum requests marked per thread per bank when
                a batch forms (5 in the PAR-BS paper).
        """
        super().__init__()
        if marking_cap < 1:
            raise ValueError("marking_cap must be at least 1")
        self.num_threads = num_threads
        self.marking_cap = marking_cap
        # Marked requests by their controller-assigned sequence number
        # (MemoryRequest.seq): stable and never reused, unlike id(),
        # whose values recycle after GC and can corrupt membership.
        self._marked: set[int] = set()
        self._rank_priority = [0] * num_threads
        self.batches_formed = 0

    # -- batching ---------------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        if not self._marked:
            self._form_batch()

    def _form_batch(self) -> None:
        assert self.controller is not None
        queues = self.controller.queues
        per_thread_bank: dict[int, list[int]] = {
            t: [] for t in range(self.num_threads)
        }
        marked: set[int] = set()
        any_requests = False
        for channel_queues in queues.channels:
            for bank_queue in channel_queues.bank_queues:
                if not bank_queue:
                    continue
                any_requests = True
                taken: dict[int, int] = {}
                for request in sorted(bank_queue, key=lambda r: r.arrival):
                    count = taken.get(request.thread_id, 0)
                    if count >= self.marking_cap:
                        continue
                    taken[request.thread_id] = count + 1
                    marked.add(request.seq)
                for thread, count in taken.items():
                    per_thread_bank[thread].append(count)
        if not any_requests:
            return
        self._marked = marked
        self.batches_formed += 1
        self._rank_threads(per_thread_bank)

    def _rank_threads(self, per_thread_bank: dict[int, list[int]]) -> None:
        """Shortest-job-first ranking: lighter threads rank higher."""

        def load(thread: int) -> tuple[int, int]:
            counts = per_thread_bank[thread]
            return (max(counts, default=0), sum(counts))

        ordered = sorted(range(self.num_threads), key=load)
        # Higher priority value wins in the key; the lightest thread
        # (ordered[0]) gets the largest value.
        for position, thread in enumerate(ordered):
            self._rank_priority[thread] = self.num_threads - 1 - position

    # -- prioritization ------------------------------------------------------
    def priority_key(self, candidate: CommandCandidate, now: int):
        return (
            1 if candidate.request.seq in self._marked else 0,
            1 if candidate.is_column else 0,
            self._rank_priority[candidate.thread_id],
            -candidate.arrival,
        )

    def on_request_completed(self, request, now: int) -> None:
        self._marked.discard(request.seq)

    @property
    def marked_remaining(self) -> int:
        return len(self._marked)
