"""Miss Status Holding Registers: bounding outstanding L2 misses.

The paper's cores have 64 MSHRs (Table 2); once all are occupied the core
cannot issue further misses, which caps a thread's achievable
memory-level parallelism.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.controller.request import MemoryRequest


class MshrFile:
    """Tracks outstanding read misses against a fixed capacity."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("need at least one MSHR")
        self.capacity = capacity
        self._outstanding: deque["MemoryRequest"] = deque()

    def __len__(self) -> int:
        return len(self._outstanding)

    def release_completed(self, now: int) -> None:
        """Free MSHRs whose requests have returned data by ``now``.

        Only completed requests at the head of the file are freed.  A
        request that completed out of order keeps its slot until every
        older one has completed too, or until the file reaches its full
        ``capacity`` and a sweep frees every completed slot.  Cores stop
        at their MLP cap, which is usually well below ``capacity`` (16,
        10, 6 and 4 against 64 on perfbench's ``kernel`` mix), so there
        the sweep never runs and out-of-order completions keep holding
        slots (DESIGN.md §3.10).
        """
        outstanding = self._outstanding
        while outstanding:
            head = outstanding[0]
            if head.completed_at is not None and head.completed_at <= now:
                outstanding.popleft()
            else:
                break
        if len(outstanding) >= self.capacity:
            self._outstanding = deque(
                request
                for request in outstanding
                if request.completed_at is None or request.completed_at > now
            )

    def earliest_completion(self, after: int) -> "int | None":
        """Earliest ``completed_at`` later than ``after`` among the held
        requests; None when none is known yet."""
        earliest = None
        for request in self._outstanding:
            done_at = request.completed_at
            if done_at is not None and done_at > after and (
                earliest is None or done_at < earliest
            ):
                earliest = done_at
        return earliest

    def try_allocate(self, request: "MemoryRequest", now: int) -> bool:
        """Claim an MSHR for a new miss; False when all are busy."""
        self.release_completed(now)
        if len(self._outstanding) >= self.capacity:
            return False
        self._outstanding.append(request)
        return True
