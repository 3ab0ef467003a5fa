"""FR-FCFS: first-ready, first-come-first-serve (Rixner et al.).

The paper's baseline and the best-throughput single-thread scheduler
(Section 2.4).  Priority order among ready commands:

1. Column-first: ready column accesses (read/write) over ready row
   accesses (activate/precharge) — maximizes row-buffer hit rate.
2. Oldest-first: earlier-arriving requests over later ones.

Being thread-unaware, FR-FCFS unfairly favors threads with high
row-buffer locality and high memory intensity (Section 2.5) — the
behaviour Figures 1 and 5(a) demonstrate.
"""

from __future__ import annotations

from repro.dram.commands import CommandCandidate
from repro.schedulers.base import SchedulingPolicy


class FrFcfsPolicy(SchedulingPolicy):
    """First-ready FCFS prioritization."""

    name = "FR-FCFS"

    def bind(self, controller) -> None:
        super().bind(controller)
        # One class for every thread: select ranks column-first, then
        # oldest-first.
        self.class_of = [0] * controller.num_threads

    def priority_key(self, candidate: CommandCandidate, now: int):
        return (1 if candidate.is_column else 0, -candidate.arrival)
