"""NFQ: network-fair-queueing memory scheduling (Nesbit et al., MICRO'06).

Implements the FQ-VFTF scheme the paper compares against (Section 4 and
Section 6.3): each thread maintains a *virtual finish time* (VFT) per
bank; when one of its requests is serviced in a bank, that VFT advances
by the request's access latency multiplied by the reciprocal of the
thread's bandwidth share (``num_threads`` for equal shares).  Ready
commands are prioritized earliest-virtual-deadline-first.

Nesbit et al.'s priority-inversion prevention optimization is included:
row-hit (column) commands may bypass an earlier-deadline row access only
for a bounded window (threshold ``tRAS``, the value used in the paper);
once the earliest-deadline request in a bank has been ready-but-bypassed
longer than the threshold, hit-first reordering is disabled in that bank
until it is serviced.

By construction this scheduler exhibits the two pathologies Section 4
analyzes — the *idleness problem* (bursty threads return from idleness
with lagging VFTs and capture the DRAM) and the *access-balance problem*
(threads concentrating on few banks accrue VFT quickly in those banks and
are deprioritized there).
"""

from __future__ import annotations

from repro.dram.commands import CommandCandidate
from repro.schedulers.base import SchedulingPolicy


class NfqPolicy(SchedulingPolicy):
    """Fair-queueing (FQ-VFTF) scheduler with virtual finish times."""

    name = "NFQ"
    # on_command_issued reads only scan.channel (present in the shell
    # ScanInfo the event kernel passes), never the thread sets.
    needs_scan = False
    def __init__(
        self,
        num_threads: int,
        shares: list[float] | None = None,
        inversion_threshold_ns: float = 45.0,
    ) -> None:
        """Create the policy.

        Args:
            num_threads: Number of threads sharing the memory system.
            shares: Relative bandwidth share of each thread (NFQ's way of
                expressing thread weights, Section 7.5).  Defaults to
                equal shares.
            inversion_threshold_ns: Priority-inversion prevention window
                (tRAS in the paper's configuration).
        """
        super().__init__()
        self.num_threads = num_threads
        if shares is None:
            shares = [1.0] * num_threads
        if len(shares) != num_threads:
            raise ValueError("need one share per thread")
        if any(share <= 0 for share in shares):
            raise ValueError("shares must be positive")
        total = sum(shares)
        # A thread with share phi may be slowed by 1/phi of the machine:
        # servicing latency L advances its VFT by L * total / share.
        self._stretch = [total / share for share in shares]
        self.inversion_threshold_ns = inversion_threshold_ns
        self._inversion_threshold: int | None = None
        # (thread, channel, bank) -> virtual finish time.
        self._vft: dict[tuple[int, int, int], float] = {}
        # (channel, bank) -> (blocked request, cycle since which it has
        # been the bypassed earliest-deadline request in the bank).
        self._blocked_since: dict[tuple[int, int], tuple[object, int]] = {}

    def bind(self, controller) -> None:
        super().bind(controller)
        self._inversion_threshold = int(
            round(
                self.inversion_threshold_ns
                * controller.timing.cpu_freq_ghz
            )
        )

    def vft(self, thread_id: int, channel: int, bank: int) -> float:
        return self._vft.get((thread_id, channel, bank), 0.0)

    def select(self, channel_index, per_bank, now):
        best: CommandCandidate | None = None
        best_key = None
        for bank_index, candidates in per_bank.items():
            earliest = min(
                candidates,
                key=lambda c: (
                    self.vft(c.thread_id, channel_index, bank_index),
                    c.arrival,
                ),
            )
            hit_first = self._hit_first_allowed(
                channel_index, bank_index, earliest, now
            )
            winner: CommandCandidate | None = None
            winner_key = None
            for candidate in candidates:
                deadline = self.vft(
                    candidate.thread_id, channel_index, bank_index
                )
                key = (
                    1 if (hit_first and candidate.is_column) else 0,
                    -deadline,
                    -candidate.arrival,
                )
                if winner is None or key > winner_key:
                    winner = candidate
                    winner_key = key
            if winner is None or not winner.channel_ready:
                continue
            if best is None or winner_key > best_key:
                best = winner
                best_key = winner_key
        return best

    def _hit_first_allowed(
        self,
        channel_index: int,
        bank_index: int,
        earliest: CommandCandidate,
        now: int,
    ) -> bool:
        """Apply the priority-inversion prevention window."""
        bank_key = (channel_index, bank_index)
        if earliest.is_column:
            # The earliest-deadline command is itself a row hit; no
            # inversion is possible.
            self._blocked_since.pop(bank_key, None)
            return True
        tracked = self._blocked_since.get(bank_key)
        if tracked is None or tracked[0] is not earliest.request:
            # A (new) earliest-deadline request is being bypassed; its
            # inversion window starts now.
            self._blocked_since[bank_key] = (earliest.request, now)
            return True
        assert self._inversion_threshold is not None
        return now - tracked[1] <= self._inversion_threshold

    def priority_key(self, candidate: CommandCandidate, now: int):
        raise NotImplementedError("NfqPolicy overrides select()")

    def on_command_issued(self, candidate, scan, now) -> None:
        bank_key = (scan.channel, candidate.bank_index)
        tracked = self._blocked_since.get(bank_key)
        if tracked is not None and tracked[0] is candidate.request:
            # The bypassed request finally made progress; the window for
            # the *next* earliest request starts fresh.
            self._blocked_since.pop(bank_key)
        if not candidate.is_column:
            return
        request = candidate.request
        key = (request.thread_id, scan.channel, candidate.bank_index)
        # The serviced request's latency depends on how the bank had to be
        # accessed; use the request's actual service composition.
        timing = self.controller.timing
        latency = timing.cl + timing.burst
        if request.got_activate:
            latency += timing.rcd
        if request.got_precharge:
            latency += timing.rp
        # Pure accumulation, as the paper describes the scheme (Section
        # 4): "the thread's virtual deadline in this bank is increased by
        # the request's access latency times the number of threads."
        # There is deliberately no flooring against real time — an idle
        # thread's stale (small) deadline is precisely what produces the
        # idleness problem the paper analyzes.
        current = self._vft.get(key, 0.0)
        self._vft[key] = current + latency * self._stretch[request.thread_id]
