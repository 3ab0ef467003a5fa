"""DRAM command types and the candidate records schedulers rank.

A *command candidate* is the next DRAM command a queued memory request
needs, given the current state of its bank: a column access (READ/WRITE)
if the request's row is open, an ACTIVATE if the bank is precharged, or a
PRECHARGE if a different row is open.  Each DRAM cycle the controller
builds the set of *ready* candidates (Section 2.4, footnote 4: a command
is ready if it can be issued without violating timing constraints) and the
scheduling policy ranks them.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.controller.request import MemoryRequest


class CommandKind(enum.IntEnum):
    """The four DRAM commands of a page-mode SDRAM (Section 2.1)."""

    PRECHARGE = 0
    ACTIVATE = 1
    READ = 2
    WRITE = 3

    @property
    def is_column(self) -> bool:
        """True for READ/WRITE (the "column accesses" of FR-FCFS)."""
        return self >= READ


# The members as module constants.  On CPython 3.11 reading a member
# through its class (``CommandKind.READ``) costs about ten global
# lookups, and the controller names a kind for every candidate it builds
# and every command it issues.
PRECHARGE = CommandKind.PRECHARGE
ACTIVATE = CommandKind.ACTIVATE
READ = CommandKind.READ
WRITE = CommandKind.WRITE


class CommandCandidate:
    """A ready DRAM command a scheduler may issue this cycle.

    Attributes:
        kind: Which DRAM command the request needs next.
        request: The memory request this command advances.
        bank_index: Bank (within the channel) the command targets.
        latency: Bank service latency of this command in CPU cycles
            (``tRP`` for PRECHARGE, ``tRCD`` for ACTIVATE, ``tCL + burst``
            for column commands).  Used by STFM's interference updates as
            ``Latency(R)`` (Section 3.2.2).
        channel_ready: Whether the command also satisfies the channel's
            cross-bank constraints (data-bus availability) this cycle.
            Per the paper's two-level scheduler (Section 2.3), a bank's
            winner is chosen on bank constraints alone; if it is not
            channel-ready the bank waits for the bus rather than letting
            a lower-priority command (e.g. another thread's precharge)
            through — this is what lets a row-hit stream monopolize its
            bank.
        is_column / thread_id / arrival: Hoisted copies of derived
            values.  Policies read them in every ``priority_key``
            evaluation; storing them directly (rather than as properties
            chasing ``kind``/``request``) keeps the scheduler's inner
            comparison loop free of descriptor dispatch.
    """

    __slots__ = (
        "kind",
        "request",
        "bank_index",
        "latency",
        "channel_ready",
        "is_column",
        "thread_id",
        "arrival",
    )

    def __init__(
        self,
        kind: CommandKind,
        request: "MemoryRequest",
        bank_index: int,
        latency: int,
        channel_ready: bool = True,
    ) -> None:
        self.kind = kind
        self.request = request
        self.bank_index = bank_index
        self.latency = latency
        self.channel_ready = channel_ready
        self.is_column = kind >= READ
        self.thread_id = request.thread_id
        self.arrival = request.arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommandCandidate({self.kind.name}, thread={self.thread_id}, "
            f"bank={self.bank_index}, arrival={self.arrival})"
        )
