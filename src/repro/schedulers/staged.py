"""Staged scheduling for heterogeneous CPU+GPU systems (extension).

Ausavarungnirun et al.'s Staged Memory Scheduling (ISCA 2012) splits
scheduling into stages; the stage that matters for fairness in a
heterogeneous system is the *between-class* one: GPU-like streaming
agents are bandwidth hungry but latency tolerant, so their requests are
deprioritized below all CPU requests — the CPU cores' latency-sensitive
misses are served first, and the streaming agent soaks up the remaining
bandwidth (which row-hit batching keeps high).

This variant keeps SMS's classification *online*, the way the paper
motivates it (the controller cannot trust a static label): every epoch
it measures each hardware thread's share of serviced requests, and a
thread consuming more than ``spill_factor`` times its fair share is
classified as streaming for the next epoch.  A static
``streaming_threads`` override is accepted for systems where the
topology is known (e.g. core 0 is the GPU).

Priority order: CPU (non-streaming) class first, then row-hit first,
then oldest first — within the streaming class the same rule preserves
row-buffer batching, which is what keeps the GPU's bandwidth high while
it is deprioritized.
"""

from __future__ import annotations

from repro.dram.commands import CommandCandidate
from repro.schedulers.base import CLASS_RANK, SchedulingPolicy


class StagedPolicy(SchedulingPolicy):
    """Between-class staged scheduler: deprioritize streaming agents."""

    name = "STAGED"

    def __init__(
        self,
        num_threads: int,
        streaming_threads: "tuple[int, ...] | list[int] | None" = None,
        epoch_length: int = 2_000,
        spill_factor: float = 2.0,
        min_epoch_requests: int = 32,
    ) -> None:
        """Create the policy.

        Args:
            num_threads: Threads sharing the memory system.
            streaming_threads: Static class assignment; None enables
                online classification by bandwidth share.
            epoch_length: Classification-epoch length in DRAM cycles.
            spill_factor: A thread is classified streaming when its
                serviced-request count exceeds ``spill_factor`` times
                the fair share of the epoch's total.
            min_epoch_requests: Epochs with fewer total serviced
                requests than this leave every thread unclassified
                (too little signal to call anyone a hog).
        """
        super().__init__()
        if epoch_length < 1:
            raise ValueError("epoch_length must be at least 1")
        if spill_factor <= 1.0:
            raise ValueError("spill_factor must exceed 1.0")
        self.num_threads = num_threads
        self.epoch_length = epoch_length
        self.spill_factor = spill_factor
        self.min_epoch_requests = min_epoch_requests
        self._static = streaming_threads is not None
        self._streaming = [False] * num_threads
        if streaming_threads is not None:
            for thread in streaming_threads:
                self._streaming[thread] = True
        self._rank_classes()
        self._epoch_served = [0] * num_threads
        self._epoch_tick = 0
        self.reclassifications = 0

    # -- per-cycle timer --------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        if self._static:
            return
        self._epoch_tick += 1
        if self._epoch_tick >= self.epoch_length:
            self._epoch_tick = 0
            self._classify()

    def _classify(self) -> None:
        """Reclassify threads from the finished epoch's service shares."""
        total = sum(self._epoch_served)
        if total < self.min_epoch_requests:
            new = [False] * self.num_threads
        else:
            cutoff = self.spill_factor * total / self.num_threads
            new = [served > cutoff for served in self._epoch_served]
        if new != self._streaming:
            self.reclassifications += 1
            self._streaming = new
            self._rank_classes()
        for thread in range(self.num_threads):
            self._epoch_served[thread] = 0

    def _rank_classes(self) -> None:
        """CPU (non-streaming) threads one class above streaming ones."""
        self.class_of = [
            0 if streaming else CLASS_RANK for streaming in self._streaming
        ]

    # -- prioritization ---------------------------------------------------
    def priority_key(self, candidate: CommandCandidate, now: int):
        return (
            0 if self._streaming[candidate.thread_id] else 1,
            1 if candidate.is_column else 0,
            -candidate.arrival,
        )

    # -- event hooks ------------------------------------------------------
    def on_request_completed(self, request, now: int) -> None:
        if not self._static:
            self._epoch_served[request.thread_id] += 1

    @property
    def streaming_classified(self) -> list[int]:
        """Thread ids currently classified as streaming (diagnostics)."""
        return [t for t in range(self.num_threads) if self._streaming[t]]
