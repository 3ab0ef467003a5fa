"""The ``TInterference`` update rules of Section 3.2.2.

Whenever the scheduler issues a DRAM command ``R`` from thread ``C``, the
estimator updates every thread's extra-stall-time estimate:

1. **Other threads, DRAM bus** — a read/write command occupies the data
   bus for ``tBus`` cycles; every other thread that had a ready column
   command gains ``tBus`` of interference.
2. **Other threads, DRAM bank** — threads with a ready command waiting
   for the same bank are delayed by ``R``'s service latency, amortized
   over the thread's ``BankWaitingParallelism`` (requests waiting in
   different banks overlap), scaled by ``gamma``:
   ``Latency(R) / (gamma * BankWaitingParallelism)`` with
   ``gamma = 1/2``.
3. **The own thread** — if the serviced request's row-buffer outcome
   differs from what it would have been had the thread run alone (tracked
   via ``LastRowAddress``), the latency difference — positive for e.g. a
   conflict that would have been a hit, negative for constructive sharing
   (footnote 10) — is charged, amortized over the thread's
   ``BankAccessParallelism``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.registers import StfmRegisters
from repro.dram.bank import RowBufferOutcome

if TYPE_CHECKING:
    from repro.controller.controller import MemoryController, ScanInfo
    from repro.dram.commands import CommandCandidate


def check_estimator_params(gamma: float, basis: str) -> None:
    """Validate the estimator's arguments (finite positive ``gamma``,
    a known ``basis``); shared with :class:`repro.core.stfm.StfmPolicy`,
    which builds its estimator only when bound to a controller."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be a finite positive number, got {gamma!r}")
    if basis not in ("waiting", "ready"):
        raise ValueError("basis must be 'waiting' or 'ready'")


class InterferenceEstimator:
    """Applies the interference updates against a register file.

    Args:
        registers: The STFM register file to update.
        controller: The owning memory controller (timing, queues).
        gamma: Bank-parallelism scaling factor (the paper used 1/2;
            our default is 1.0 — see StfmPolicy).
        basis: Which threads count as delayed by an issued command —
            ``"waiting"`` (default; threads with a request queued for
            the resource) or ``"ready"`` (the paper's literal wording:
            threads whose next command could issue this cycle).  The
            ready basis systematically underestimates victims' delay at
            DRAM-command granularity; see ScanInfo's docstring and the
            ``ablate-estimator`` experiment.
    """

    def __init__(
        self,
        registers: StfmRegisters,
        controller: "MemoryController",
        gamma: float = 1.0,
        basis: str = "waiting",
    ) -> None:
        check_estimator_params(gamma, basis)
        self.registers = registers
        self.controller = controller
        self.gamma = gamma
        self.basis = basis

    def on_command_issued(
        self, candidate: "CommandCandidate", scan: "ScanInfo", now: int
    ) -> None:
        """Run all three update rules for one issued command."""
        self._update_bank_interference(candidate, scan)
        if candidate.is_column:
            self._update_bus_interference(candidate, scan)
            self._update_own_thread(candidate, scan)

    # -- rule 1b: bank interference ---------------------------------------
    def _update_bank_interference(
        self, candidate: "CommandCandidate", scan: "ScanInfo"
    ) -> None:
        by_bank = (
            scan.waiting_threads_by_bank
            if self.basis == "waiting"
            else scan.ready_threads_by_bank
        )
        waiters = by_bank.get(candidate.bank_index)
        if not waiters:
            return
        issuer = candidate.thread_id
        queues = self.controller.queues
        latency = candidate.latency
        # sorted(): the scan structures are sets; a fixed visit order
        # keeps float interference accumulation bit-reproducible (SIM003).
        for thread in sorted(waiters):
            if thread == issuer:
                continue
            parallelism = max(1, queues.waiting_bank_count(thread))
            self.registers.add_interference(
                thread, latency / (self.gamma * parallelism)
            )

    # -- rule 1a: bus interference -----------------------------------------
    def _update_bus_interference(
        self, candidate: "CommandCandidate", scan: "ScanInfo"
    ) -> None:
        issuer = candidate.thread_id
        t_bus = self.controller.timing.t_bus
        column_threads = (
            scan.waiting_column_threads
            if self.basis == "waiting"
            else scan.ready_column_threads
        )
        for thread in sorted(column_threads):
            if thread != issuer:
                self.registers.add_interference(thread, t_bus)

    # -- rule 2: own-thread extra latency -----------------------------------
    def _update_own_thread(
        self, candidate: "CommandCandidate", scan: "ScanInfo"
    ) -> None:
        request = candidate.request
        thread = request.thread_id
        coords = request.coords
        global_bank = self.controller.queues.global_bank(
            coords.channel, coords.bank
        )
        alone_row = self.registers.last_row(thread, global_bank)
        if alone_row is None:
            alone_outcome = RowBufferOutcome.ROW_CLOSED
        elif alone_row == coords.row:
            alone_outcome = RowBufferOutcome.ROW_HIT
        else:
            alone_outcome = RowBufferOutcome.ROW_CONFLICT
        actual_outcome = request.service_outcome()
        extra = self._outcome_latency(actual_outcome) - self._outcome_latency(
            alone_outcome
        )
        if extra:
            parallelism = max(
                1, self.controller.bank_access_parallelism(thread)
            )
            self.registers.add_interference(thread, extra / parallelism)
        self.registers.record_row(thread, global_bank, coords.row)

    def _outcome_latency(self, outcome: RowBufferOutcome) -> int:
        """Row-access latency beyond the unavoidable column access.

        A hit needs nothing extra; a closed row pays ``tRCD``; a conflict
        pays ``tRP + tRCD`` (the paper's ``ExtraLatency``).
        """
        timing = self.controller.timing
        if outcome is RowBufferOutcome.ROW_HIT:
            return 0
        if outcome is RowBufferOutcome.ROW_CLOSED:
            return timing.rcd
        return timing.rp + timing.rcd
