"""Scheduling-policy interface.

The controller performs the mechanical two-level selection of Section 2.3
(per-bank best command, then a channel winner); a policy supplies the
priority order and receives hooks on the events it needs for its internal
state (enqueue, command issue, request completion).

Priorities are expressed as sortable tuples where *larger compares
higher*; the default :meth:`SchedulingPolicy.select` simply takes the
maximum over all ready candidates of a channel, which realizes both
scheduler levels at once (the per-bank maximum is a sub-problem of the
channel-wide maximum under a single total order).  Policies that need
per-bank state (e.g. NFQ's priority-inversion prevention) may override
:meth:`select`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.dram.commands import CommandCandidate

if TYPE_CHECKING:
    from repro.controller.controller import MemoryController, ScanInfo
    from repro.controller.request import MemoryRequest


class SchedulingPolicy:
    """Base class for DRAM command prioritization policies."""

    name = "base"

    #: Whether :meth:`on_command_issued` reads the ScanInfo side products
    #: (waiting/ready thread sets, oldest row-access arrivals).  The
    #: event-driven kernel only materializes the ScanInfo for policies
    #: that need it — others receive an empty shell carrying just the
    #: channel index.  The conservative default is True; policies that
    #: ignore the scan (or read only ``scan.channel``) override to False
    #: to skip a per-issue queue walk.  The naive kernel always builds
    #: the full ScanInfo, so a wrong True costs speed, never correctness.
    #:
    #: A policy that does read the scan must read only what the event
    #: kernel fills in at issue time: the issued bank's
    #: (``candidate.bank_index``) waiting and ready threads, and — only
    #: when the issued command is a column access — that bank's oldest
    #: row-access arrival and the channel-wide column-thread sets.
    #: Every other entry is left empty there.
    needs_scan = True

    #: Whether :meth:`on_command_issued` reads the scan's *ready* sets
    #: (``ready_threads_by_bank``, ``ready_column_threads``).  The event
    #: kernel builds them only for policies that say so; the default is
    #: the conservative True, as for :attr:`needs_scan`.
    needs_ready_sets = True

    def __init__(self) -> None:
        self.controller: "MemoryController | None" = None

    def bind(self, controller: "MemoryController") -> None:
        """Attach the policy to a controller (called once at setup)."""
        self.controller = controller

    # -- per-cycle hooks -------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        """Called once per DRAM cycle before any channel is scheduled."""

    # Kept only because perfbench's ``trace_simulator`` wraps it by name.
    def fast_forward(self, *args):
        raise NotImplementedError

    def select(
        self,
        channel_index: int,
        per_bank: dict[int, list[CommandCandidate]],
        now: int,
    ) -> CommandCandidate | None:
        """Pick the command to issue on a channel this cycle.

        Implements the paper's two-level scheduler (Section 2.3): the
        per-bank level selects the highest-priority bank-ready command of
        each bank; the across-bank level picks the highest-priority
        *channel-ready* winner.  A bank whose winner is waiting for the
        data bus issues nothing — it does not fall back to a
        lower-priority command, so a stream of row hits keeps its bank
        reserved.

        Args:
            channel_index: Which channel is being scheduled.
            per_bank: Bank-ready candidates, keyed by bank index.
                Candidates with ``channel_ready`` False satisfy only the
                bank-level constraints this cycle.
            now: Current CPU cycle.
        """
        best: CommandCandidate | None = None
        best_key = None
        priority_key = self.priority_key
        for candidates in per_bank.values():
            winner: CommandCandidate | None = None
            winner_key = None
            for candidate in candidates:
                key = priority_key(candidate, now)
                if winner is None or key > winner_key:
                    winner = candidate
                    winner_key = key
            if winner is None or not winner.channel_ready:
                continue
            if best is None or winner_key > best_key:
                best = winner
                best_key = winner_key
        return best

    def priority_key(self, candidate: CommandCandidate, now: int):
        """Sortable priority of a candidate; larger wins."""
        raise NotImplementedError

    # -- event hooks -----------------------------------------------------
    def on_enqueue(self, request: "MemoryRequest", now: int) -> None:
        """A request entered the request buffer."""

    def on_command_issued(
        self, candidate: CommandCandidate, scan: "ScanInfo", now: int
    ) -> None:
        """A DRAM command was issued (after bank/bus state was updated)."""

    def on_request_completed(self, request: "MemoryRequest", now: int) -> None:
        """A request's column command issued; it left the request buffer."""


def oldest(candidates: Iterable[CommandCandidate]) -> CommandCandidate | None:
    """Utility: the earliest-arrival candidate (FCFS tie-break helper)."""
    best = None
    for candidate in candidates:
        if best is None or candidate.arrival < best.arrival:
            best = candidate
    return best
