"""FCFS: plain first-come-first-serve over ready DRAM commands.

The simplest "fair" scheduler discussed in Section 4: it removes the
row-buffer-locality bias of FR-FCFS but still implicitly prioritizes
memory-intensive threads (their requests dominate the head of the queue)
and sacrifices DRAM throughput by ignoring open rows.
"""

from __future__ import annotations

from repro.dram.commands import CommandCandidate
from repro.schedulers.base import SchedulingPolicy


class FcfsPolicy(SchedulingPolicy):
    """Oldest-first prioritization among ready commands."""

    name = "FCFS"

    def priority_key(self, candidate: CommandCandidate, now: int):
        return (-candidate.arrival, 1 if candidate.is_column else 0)
