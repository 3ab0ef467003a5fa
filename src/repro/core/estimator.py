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
   ``Latency(R) / (gamma * BankWaitingParallelism)``.  The paper set
   ``gamma = 1/2``; ours defaults to 1.0 (DESIGN.md §3.10, item 2).
3. **The own thread** — if the serviced request's row-buffer outcome
   differs from what it would have been had the thread run alone (tracked
   via ``LastRowAddress``), the latency difference — positive for e.g. a
   conflict that would have been a hit, negative for constructive sharing
   (footnote 10) — is charged, amortized over the thread's
   ``BankAccessParallelism``.

Like the paper's controller, which keeps per-thread registers rather
than rescanning its request buffer, the estimator names the receivers
of the bus and bank rules from counters: on the default *waiting*
basis the request queues count each thread's reads per bank and per
channel, and those that hit their bank's open row
(:mod:`repro.controller.queues`).
Only the literal *ready* basis, an ablation, reads the ready candidates
the controller chose the command from.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.registers import StfmRegisters

if TYPE_CHECKING:
    from repro.controller.controller import MemoryController
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
            DRAM-command granularity; see DESIGN.md §3.10 (item 1) and
            the ``ablate-estimator`` experiment.
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
        timing = controller.timing
        # The outcome latencies of rule 2: a closed row pays tRCD, a
        # conflict tRP + tRCD.
        self._t_closed = timing.rcd
        self._t_conflict = timing.rp + timing.rcd
        self._num_banks = controller.queues.num_banks
        self._access_parallelism = controller._bank_access_parallelism

    def on_command_issued(
        self,
        candidate: "CommandCandidate",
        per_bank: "dict[int, list[CommandCandidate]]",
        now: int,
    ) -> None:
        """Run all three update rules for one issued command.

        Called after the controller applied the command, chosen from
        ``per_bank``.  That changed only the issuer's queue counts (a
        column command removed its request), and the issuer never
        receives rules 1a and 1b.  In a write drain the ready basis lets
        queued reads stand in for ready ones, which are the waiting
        basis's receivers.
        """
        if self.basis == "waiting" or candidate.request.is_write:
            self._charge_waiters(candidate)
        else:
            self._charge_ready(candidate, per_bank)
        if candidate.is_column:
            self._update_own_thread(candidate)

    # -- rules 1a and 1b on the waiting basis --------------------------------
    def _charge_waiters(self, candidate: "CommandCandidate") -> None:
        """Charge the threads with reads queued for the issued bank
        (bank rule) and, for a column command, for the channel's bus: in
        read mode the reads that hit their bank's open row, in a write
        drain every queued read.  The counters the queues keep name
        them; threads are visited in id order."""
        request = candidate.request
        queues = self.controller.queues
        gbank = request.channel * self._num_banks + request.bank
        issuer = candidate.thread_id
        threads = self.registers.threads
        waiting_banks = queues.waiting_banks
        gamma = self.gamma
        latency = candidate.latency
        for thread, waiting in enumerate(queues.waiting):
            if waiting[gbank] and thread != issuer:
                # A receiver waits in this bank: its parallelism is >= 1.
                threads[thread].t_interference += latency / (
                    gamma * waiting_banks[thread]
                )
        if not candidate.is_column:
            return
        channel = queues.channels[request.channel]
        bus_waiting = (
            channel.thread_reads if request.is_write else channel.row_hit_reads
        )
        t_bus = self.controller.timing.t_bus
        for thread, reads in enumerate(bus_waiting):
            if reads and thread != issuer:
                threads[thread].t_interference += t_bus

    # -- rules 1a and 1b on the ready basis ----------------------------------
    def _charge_ready(
        self,
        candidate: "CommandCandidate",
        per_bank: "dict[int, list[CommandCandidate]]",
    ) -> None:
        """Rules 1a and 1b over the ready candidates (the ablation): the
        threads with one in the issued bank and, for a column command,
        those with a channel-ready column command on the channel."""
        issuer = candidate.thread_id
        threads = self.registers.threads
        waiting_banks = self.controller.queues.waiting_banks
        gamma = self.gamma
        latency = candidate.latency
        # sorted(): a fixed visit order keeps float interference
        # accumulation bit-reproducible (SIM003).
        receivers = {c.thread_id for c in per_bank[candidate.bank_index]}
        for thread in sorted(receivers):
            if thread != issuer:
                # A receiver waits in this bank: its parallelism is >= 1.
                threads[thread].t_interference += latency / (
                    gamma * waiting_banks[thread]
                )
        if not candidate.is_column:
            return
        ready_columns = {
            c.thread_id
            for candidates in per_bank.values()
            for c in candidates
            if c.is_column and c.channel_ready
        }
        t_bus = self.controller.timing.t_bus
        for thread in sorted(ready_columns):
            if thread != issuer:
                threads[thread].t_interference += t_bus

    # -- rule 2: own-thread extra latency -----------------------------------
    def _update_own_thread(self, candidate: "CommandCandidate") -> None:
        """Charge the issuer the latency its row-buffer outcome cost
        over the outcome it would have had alone, amortized over its
        ``BankAccessParallelism``, then record the row it accessed.

        An outcome's latency beyond the unavoidable column access (the
        paper's ``ExtraLatency``) is 0 for a hit, ``tRCD`` for a closed
        row and ``tRP + tRCD`` for a conflict.  The actual outcome is
        read from the request's ACTIVATE/PRECHARGE flags, the alone one
        from the thread's ``LastRowAddress`` for the bank.
        """
        request = candidate.request
        thread = request.thread_id
        own = self.registers.threads[thread]
        last_row = own.last_row
        global_bank = request.channel * self._num_banks + request.bank
        row = request.row
        if request.got_precharge:
            extra = self._t_conflict
        elif request.got_activate:
            extra = self._t_closed
        else:
            extra = 0
        alone_row = last_row.get(global_bank)
        if alone_row is None:
            extra -= self._t_closed
        elif alone_row != row:
            extra -= self._t_conflict
        if extra:
            parallelism = self._access_parallelism[thread]
            own.t_interference += (
                extra / parallelism if parallelism > 1 else extra
            )
        last_row[global_bank] = row
