"""DRAM channel: a set of banks sharing command and data buses.

The channel enforces the cross-bank resource constraints of Section 2.3:
at most one DRAM command may be issued per DRAM cycle (shared
address/command bus) and a column command reserves the 64-bit data bus for
one burst, ``[issue + tCL, issue + tCL + tBurst)``.
"""

from __future__ import annotations

from repro.dram.bank import Bank
from repro.dram.commands import READ, CommandKind
from repro.dram.timing import DramTiming


class Channel:
    """One independent DRAM channel (Table 2: 6.4 GB/s peak each)."""

    def __init__(self, index: int, num_banks: int, timing: DramTiming) -> None:
        self.index = index
        self.timing = timing
        self.banks = [Bank(b, timing) for b in range(num_banks)]
        self.data_bus_busy_until = 0
        self.last_command_cycle = -1
        # Issue statistics, by command kind.
        self.commands_issued = {kind: 0 for kind in CommandKind}
        self.data_bus_busy_cycles = 0
        # Optional protocol sanitizer (repro.analysis.protocol); when
        # attached it validates every command before state advances.
        self.sanitizer = None

    def command_bus_free(self, now: int) -> bool:
        """One command per DRAM cycle on the shared command bus."""
        return now > self.last_command_cycle

    def column_ready(self, now: int) -> bool:
        """Whether a column command issued now finds the data bus free.

        Data for a column command issued at ``now`` occupies the bus from
        ``now + tCL``; it is ready if the previous burst has drained by
        then (an in-order data bus).
        """
        return now + self.timing.cl >= self.data_bus_busy_until

    def is_ready(self, bank: Bank, kind: CommandKind, now: int) -> bool:
        """Full readiness check for a command (bank + bus constraints)."""
        if not self.command_bus_free(now):
            return False
        if kind.is_column and not self.column_ready(now):
            return False
        return bank.is_ready(kind, now)

    def issue(self, bank: Bank, kind: CommandKind, row: int, now: int) -> int:
        """Issue a command; returns the data-ready time for column commands.

        For PRECHARGE/ACTIVATE the return value is the time the bank
        becomes ready again (informational).
        """
        if self.sanitizer is not None:
            self.sanitizer.observe(self.index, bank.index, kind, row, now)
        self.last_command_cycle = now
        self.commands_issued[kind] += 1
        bank.apply(kind, row, now)
        if kind >= READ:  # a column command
            data_end = now + self.timing.cl + self.timing.burst
            self.data_bus_busy_until = data_end
            self.data_bus_busy_cycles += self.timing.burst
            return data_end
        return bank.busy_until

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of time the data bus carried data."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.data_bus_busy_cycles / elapsed_cycles
