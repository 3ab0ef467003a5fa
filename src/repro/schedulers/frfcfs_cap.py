"""FR-FCFS+Cap: FR-FCFS with a cap on column-over-row reordering.

The new comparison algorithm introduced in Section 4 of the paper: per
bank, at most ``cap`` younger column (row-hit) accesses may be serviced
while an older request still awaiting a row access (activate/precharge)
waits in the same bank.  Once the cap is reached the bank falls back to
FCFS until a row access is serviced, which resets the counter.

This bounds the streaming-thread starvation of FR-FCFS (a 2 KB row can
otherwise source 256 consecutive row hits past a waiting row-conflict
request, Section 2.5) but retains FCFS's bias toward memory-intensive
threads.
"""

from __future__ import annotations

from repro.dram.commands import CommandCandidate
from repro.schedulers.base import SchedulingPolicy


class FrFcfsCapPolicy(SchedulingPolicy):
    """FR-FCFS with a per-bank column-bypass cap (default 4, Section 6.3)."""

    name = "FR-FCFS+Cap"
    needs_ready_sets = False  # reads only the oldest row-access arrival

    def __init__(self, cap: int = 4) -> None:
        super().__init__()
        if cap < 1:
            raise ValueError("cap must be at least 1")
        self.cap = cap
        # (channel, bank) -> younger-column bypass count since the last
        # row access serviced in that bank.
        self._bypass_counts: dict[tuple[int, int], int] = {}
        self._channel_being_scanned = 0

    def select(self, channel_index, per_bank, now):
        self._channel_being_scanned = channel_index
        return super().select(channel_index, per_bank, now)

    def priority_key(self, candidate: CommandCandidate, now: int):
        bank_key = (self._channel_being_scanned, candidate.bank_index)
        capped = self._bypass_counts.get(bank_key, 0) >= self.cap
        column_priority = 1 if (candidate.is_column and not capped) else 0
        return (column_priority, -candidate.arrival)

    def on_command_issued(self, candidate, scan, now) -> None:
        bank_key = (scan.channel, candidate.bank_index)
        if candidate.is_column:
            oldest_row_access = scan.oldest_row_access_arrival.get(
                candidate.bank_index
            )
            bypassed_older = (
                oldest_row_access is not None
                and oldest_row_access < candidate.arrival
            )
            if bypassed_older:
                self._bypass_counts[bank_key] = (
                    self._bypass_counts.get(bank_key, 0) + 1
                )
        else:
            # A row access was serviced: the waiting row access made
            # progress, so the bypass window restarts.
            self._bypass_counts[bank_key] = 0
