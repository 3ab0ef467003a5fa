"""DRAM bank state machine.

Each bank tracks its open row (if any), the time until which it is busy
with the last issued command, and when its current row was activated (to
enforce ``tRAS`` before a precharge).  Requests are classified against the
bank as row-hit / row-closed / row-conflict exactly as in Section 2.1 of
the paper.
"""

from __future__ import annotations

import enum

from repro.dram.commands import ACTIVATE, PRECHARGE, READ, CommandKind
from repro.dram.timing import DramTiming


class RowBufferOutcome(enum.IntEnum):
    """How a request relates to the bank's row-buffer state."""

    ROW_HIT = 0
    ROW_CLOSED = 1
    ROW_CONFLICT = 2


# The members as module constants (see the note in ``commands.py``).
ROW_HIT = RowBufferOutcome.ROW_HIT
ROW_CLOSED = RowBufferOutcome.ROW_CLOSED
ROW_CONFLICT = RowBufferOutcome.ROW_CONFLICT


class Bank:
    """One DRAM bank within a channel.

    Attributes:
        open_row: Row currently latched in the row buffer, or None if the
            bank is precharged.
        busy_until: CPU cycle at which the bank can accept another command.
        activated_at: Issue time of the most recent ACTIVATE (``tRAS``
            reference point); meaningless while ``open_row`` is None.
    """

    __slots__ = ("index", "timing", "open_row", "busy_until", "activated_at")

    def __init__(self, index: int, timing: DramTiming) -> None:
        self.index = index
        self.timing = timing
        self.open_row: int | None = None
        self.busy_until = 0
        self.activated_at = 0

    def classify(self, row: int) -> RowBufferOutcome:
        """Classify an access to ``row`` against the current row buffer."""
        if self.open_row is None:
            return ROW_CLOSED
        if self.open_row == row:
            return ROW_HIT
        return ROW_CONFLICT

    def next_command_for(self, row: int) -> CommandKind:
        """Which command a request for ``row`` needs next.

        Column direction (READ vs WRITE) is resolved by the caller; this
        returns READ as the generic column placeholder.
        """
        outcome = self.classify(row)
        if outcome is ROW_HIT:
            return READ
        if outcome is ROW_CLOSED:
            return ACTIVATE
        return PRECHARGE

    def command_latency(self, kind: CommandKind) -> int:
        """Bank service latency of a command, in CPU cycles."""
        timing = self.timing
        if kind is PRECHARGE:
            return timing.rp
        if kind is ACTIVATE:
            return timing.rcd
        return timing.cl + timing.burst

    def is_ready(self, kind: CommandKind, now: int) -> bool:
        """Whether the bank-side timing constraints allow ``kind`` now.

        The channel additionally checks data-bus availability for column
        commands and enforces one command per DRAM cycle.
        """
        if now < self.busy_until:
            return False
        if kind is PRECHARGE:
            # A row may only be closed tRAS after it was opened.
            return self.open_row is None or now >= self.activated_at + self.timing.ras
        if kind is ACTIVATE:
            return self.open_row is None
        # Column access requires a matching open row; the caller guarantees
        # the row matches (candidates are rebuilt every cycle).
        return self.open_row is not None

    def apply(self, kind: CommandKind, row: int, now: int) -> None:
        """Issue ``kind`` to the bank and advance its state."""
        if kind is PRECHARGE:
            self.open_row = None
            self.busy_until = now + self.timing.rp
        elif kind is ACTIVATE:
            self.open_row = row
            self.activated_at = now
            self.busy_until = now + self.timing.rcd
        else:
            # Column commands pipeline at the burst rate; the data bus
            # reservation (Channel) is what actually limits throughput.
            self.busy_until = now + self.timing.burst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bank({self.index}, open_row={self.open_row}, "
            f"busy_until={self.busy_until})"
        )
