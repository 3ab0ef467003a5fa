"""Scheduling-policy interface.

The controller performs the mechanical two-level selection of Section 2.3
(per-bank best command, then a channel winner); a policy supplies the
priority order and receives hooks on the events it needs for its internal
state (enqueue, command issue, request completion).

Every policy states its order as :meth:`SchedulingPolicy.priority_key`,
a sortable tuple where *larger compares higher*.  Most policies rank by
"per-thread class, then column-first, then oldest-first" and keep a
per-thread class table (:attr:`SchedulingPolicy.class_of`) instead; for
them :meth:`SchedulingPolicy.select` ranks each candidate by one integer
built from its own fields and that table, with no call per candidate.
The two orders agree exactly (``tests/test_select_ranking.py``).
Policies that need per-bank state (e.g. NFQ's priority-inversion
prevention) may override :meth:`select`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dram.commands import CommandCandidate

if TYPE_CHECKING:
    from repro.controller.controller import MemoryController
    from repro.controller.request import MemoryRequest

#: Arrivals the integer ranking can order: every request's arrival must
#: be below ``ARRIVAL_LIMIT``.  A request arrives before the loop's last
#: quantum ends, so ``SystemConfig`` rejects a ``max_cycles`` that could
#: let an arrival reach it (the default, 400M, is below 2**29).  29 bits
#: keep FR-FCFS keys within one CPython integer digit.
ARRIVAL_LIMIT = 1 << 29
#: The column-first bit of the integer key, above any arrival.
COLUMN_RANK = ARRIVAL_LIMIT
#: One step of a policy's per-thread class, above column and arrival.
CLASS_RANK = ARRIVAL_LIMIT << 1
#: Below every key: the lowest is a class-0 row access arriving at
#: ``ARRIVAL_LIMIT - 1``.
_BELOW_ALL_KEYS = -ARRIVAL_LIMIT


class SchedulingPolicy:
    """Base class for DRAM command prioritization policies."""

    name = "base"

    #: Per-thread class for the integer ranking: a multiple of
    #: ``CLASS_RANK`` per thread id, larger ranking first.  ``None``
    #: makes :meth:`select` rank by :meth:`priority_key` instead.  A
    #: policy that sets it updates it wherever its class state changes,
    #: so that it always matches the class part of its ``priority_key``.
    class_of: "list[int] | None" = None

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
        class_of = self.class_of
        if class_of is not None:
            # key = class + column bit - arrival: the order of
            # ``(class, is_column, -arrival)`` as one integer (see
            # ARRIVAL_LIMIT).  Strict ``>`` keeps the first maximum, as
            # the priority_key loop below does.
            best = None
            best_key = _BELOW_ALL_KEYS
            for candidates in per_bank.values():
                winner = None
                winner_key = _BELOW_ALL_KEYS
                for candidate in candidates:
                    key = class_of[candidate.thread_id] - candidate.arrival
                    if candidate.is_column:
                        key += COLUMN_RANK
                    if key > winner_key:
                        winner = candidate
                        winner_key = key
                if winner_key > best_key and winner.channel_ready:
                    best = winner
                    best_key = winner_key
            return best
        best = None
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
        self,
        candidate: CommandCandidate,
        per_bank: dict[int, list[CommandCandidate]],
        now: int,
    ) -> None:
        """A DRAM command was issued (after bank/bus state was updated).

        ``per_bank`` holds the candidates :meth:`select` chose it from,
        as they were before the issue.
        """

    def on_request_completed(self, request: "MemoryRequest", now: int) -> None:
        """A request's column command issued; it left the request buffer."""

