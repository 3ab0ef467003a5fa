"""The DRAM memory controller (Sections 2.2, 2.3 and 5 of the paper).

Each DRAM cycle the controller, per channel:

1. decides whether to service reads or drain writebacks (reads are
   prioritized over writes; writes drain when their buffer passes a high
   watermark or no reads are pending — Table 2 baseline),
2. builds the set of *ready* command candidates for every bank,
3. asks the scheduling policy to pick a winner (two-level prioritization),
4. issues the winning command, updating bank/bus state, and — when the
   command is a column access — completes the request and notifies stats.

The controller also maintains the per-thread ``BankAccessParallelism``
count (requests currently being serviced in banks, Table 1) used by STFM.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.controller.queues import RequestQueues
from repro.controller.request import MemoryRequest
from repro.dram.address import AddressMapper
from repro.dram.bank import ROW_CLOSED, ROW_HIT, RowBufferOutcome
from repro.dram.channel import Channel
from repro.dram.commands import (
    ACTIVATE,
    PRECHARGE,
    READ,
    WRITE,
    CommandCandidate,
)
from repro.dram.timing import DramTiming
from repro.schedulers.base import ARRIVAL_LIMIT, SchedulingPolicy

#: Sentinel "no future state change" time for the candidate caches.
_NEVER = 1 << 62


class _BankCandidateCache:
    """Per-channel cache of bank-ready candidate lists (event kernel).

    Between two state changes of a bank (enqueue into its queue, command
    issued to it, refresh), the set of bank-ready candidates the naive
    scan would build is a pure function of time with known breakpoints:

    * a busy bank contributes nothing until ``busy_until``;
    * a free, precharged bank offers one ACTIVATE per queued request,
      forever (until an external event);
    * a free bank with an open row offers column accesses for row hits
      immediately and PRECHARGEs for conflicts once ``tRAS`` is
      satisfied (``activated_at + tRAS``).

    ``expires[b]`` stores the earliest such breakpoint; a cached list is
    valid while ``now < expires[b]`` and no invalidation hook fired.
    The ``channel_ready`` bit of cached column candidates is a
    channel-global predicate of ``now`` and is rewritten in one sweep
    whenever its value flips (see ``MemoryController._fast_per_bank``).

    ``per_bank`` keeps the last assembled per-bank dict until
    ``per_bank_until``, the earliest expiry among the banks with queued
    requests, or until a hook fires, so the ticks that follow reuse it
    while no bank changes.
    """

    __slots__ = ("cands", "expires", "col_ready", "per_bank", "per_bank_until")

    def __init__(self, num_banks: int) -> None:
        self.cands: "list[list[CommandCandidate] | None]" = [None] * num_banks
        self.expires = [0] * num_banks
        self.col_ready = True
        self.per_bank: "dict[int, list[CommandCandidate]] | None" = None
        self.per_bank_until = 0

    def invalidate(self, bank_index: int) -> None:
        self.cands[bank_index] = None
        self.per_bank = None

    def invalidate_all(self) -> None:
        cands = self.cands
        for bank_index in range(len(cands)):
            cands[bank_index] = None
        self.per_bank = None


@dataclass
class ThreadMemStats:
    """Per-thread DRAM service statistics for one simulation."""

    reads_completed: int = 0
    writes_completed: int = 0
    row_hits: int = 0
    row_closed: int = 0
    row_conflicts: int = 0
    total_read_latency: int = 0

    def record_read(self, outcome: RowBufferOutcome, latency: int) -> None:
        self.reads_completed += 1
        self.total_read_latency += latency
        if outcome is ROW_HIT:
            self.row_hits += 1
        elif outcome is ROW_CLOSED:
            self.row_closed += 1
        else:
            self.row_conflicts += 1

    @property
    def row_hit_rate(self) -> float:
        total = self.reads_completed
        return self.row_hits / total if total else 0.0

    @property
    def average_read_latency(self) -> float:
        total = self.reads_completed
        return self.total_read_latency / total if total else 0.0


class MemoryController:
    """On-chip DRAM controller managing one or more channels."""

    def __init__(
        self,
        timing: DramTiming,
        mapper: AddressMapper,
        num_threads: int,
        policy: SchedulingPolicy,
        read_capacity: int = 128,
        write_capacity: int = 32,
        write_drain_high: int = 24,
        write_drain_low: int = 8,
        page_policy: str = "open",
        refresh_enabled: bool = False,
    ) -> None:
        if page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")
        self.timing = timing
        self.mapper = mapper
        self.num_threads = num_threads
        self.channels = [
            Channel(c, mapper.num_banks, timing) for c in range(mapper.num_channels)
        ]
        self.queues = RequestQueues(
            mapper.num_channels,
            mapper.num_banks,
            num_threads,
            read_capacity=read_capacity,
            write_capacity=write_capacity,
        )
        self.write_drain_high = write_drain_high
        self.write_drain_low = write_drain_low
        self._draining = [False] * mapper.num_channels
        # BankAccessParallelism: in-flight serviced requests per thread,
        # retired lazily via a (completion_time, thread) heap.  Built
        # before the policy binds: STFM's estimator reads the counts in
        # place (never rebound).
        self._in_service: list[tuple[int, int]] = []
        self._bank_access_parallelism = [0] * num_threads
        self.policy = policy
        policy.bind(self)

        self.thread_stats = [ThreadMemStats() for _ in range(num_threads)]
        self.commands_issued = 0

        # Open-page (baseline, Table 2) keeps rows open for hits;
        # closed-page auto-precharges after the last pending column.
        self.page_policy = page_policy
        # Auto-refresh: an all-bank refresh per channel every tREFI.
        self.refresh_enabled = refresh_enabled
        self._next_refresh = [timing.refi] * mapper.num_channels
        self.refreshes_issued = 0

        # Monotonic per-controller request sequence numbers: a stable,
        # allocator-independent identity for request-keyed policy state
        # (PAR-BS batch marking) — unlike id(), never reused.
        self._next_seq = 0
        # Optional DRAM protocol sanitizer (repro.analysis.protocol).
        self.sanitizer = None
        # Optional (thread_id, completed_at) callback, see set_read_listener.
        self._read_listener = None

        # Event-kernel state.  The ``STFM_SIM_KERNEL`` choice is read
        # once, here: it selects the cached candidate scans and, in
        # ``CmpSystem.run``, sleeping cores; the naive path is the
        # bit-identical differential-testing oracle (DESIGN.md §3.14).
        # The caches stay coherent on both paths (the invalidation hooks
        # in submit/_issue/_refresh are O(1) and unconditional).
        # Imported lazily: repro.sim's package __init__ pulls in modules
        # that import this one.
        from repro.sim.kernel import event_kernel_enabled

        self._fast_path = event_kernel_enabled()
        self._scan_caches = [
            _BankCandidateCache(mapper.num_banks)
            for _ in range(mapper.num_channels)
        ]

    def attach_sanitizer(self, sanitizer) -> None:
        """Validate every issued command against DDR2 constraints.

        The sanitizer observes commands on all channels plus the
        out-of-band state changes (refresh, closed-page auto-precharge);
        it never alters simulation state, so results are bit-identical
        with or without it.
        """
        self.sanitizer = sanitizer
        for channel in self.channels:
            channel.sanitizer = sanitizer

    def set_read_listener(self, listener) -> None:
        """Call ``listener(thread_id, completed_at)`` whenever a read's
        column command issues and so fixes when its data returns (the
        event kernel wakes a sleeping core with it).  Writes are not
        reported."""
        self._read_listener = listener

    # -- request admission -------------------------------------------------
    def submit(self, request: MemoryRequest, now: int) -> bool:
        """Admit a request into the request buffer.

        Returns False when the corresponding buffer is full; the core
        retries later (back-pressure).
        """
        # The policies' integer ranking orders arrivals below the limit
        # (SystemConfig keeps max_cycles there).
        assert now < ARRIVAL_LIMIT, "arrival beyond the ranking's range"
        request.arrival = now
        if request.seq is None:
            request.seq = self._next_seq
            self._next_seq += 1
        if request.is_write:
            accepted = self.queues.enqueue_write(request)
        else:
            bank = self.channels[request.channel].banks[request.bank]
            accepted = self.queues.enqueue_read(
                request, bank.open_row == request.row
            )
            if accepted:
                self._scan_caches[request.channel].invalidate(request.bank)
        if accepted:
            self.policy.on_enqueue(request, now)
        return accepted

    def make_request(
        self, thread_id: int, address: int, is_write: bool, now: int
    ) -> MemoryRequest:
        coords = self.mapper.decode(address)
        return MemoryRequest(thread_id, address, coords, is_write, now)

    # -- scheduling ----------------------------------------------------------
    def tick(self, now: int) -> None:
        """Make one scheduling decision per channel (one DRAM cycle)."""
        self._retire_in_service(now)
        if self.refresh_enabled:
            self._refresh(now)
        self.policy.begin_cycle(now)
        if self._fast_path:
            for channel in self.channels:
                self._schedule_channel_fast(channel, now)
        else:
            for channel in self.channels:
                self._schedule_channel(channel, now)

    def _refresh(self, now: int) -> None:
        """All-bank auto-refresh: every tREFI the channel's banks are
        precharged and unavailable for tRFC."""
        timing = self.timing
        for channel in self.channels:
            if now < self._next_refresh[channel.index]:
                continue
            self._next_refresh[channel.index] = now + timing.refi
            self.refreshes_issued += 1
            if self.sanitizer is not None:
                self.sanitizer.on_refresh(channel.index, now)
            for bank in channel.banks:
                if bank.open_row is not None:
                    self.queues.count_row_hits(
                        channel.index, bank.index, bank.open_row, -1
                    )
                bank.open_row = None
                bank.busy_until = max(bank.busy_until, now) + timing.rfc
            self._scan_caches[channel.index].invalidate_all()

    def _retire_in_service(self, now: int) -> None:
        heap = self._in_service
        while heap and heap[0][0] <= now:
            _, thread = heapq.heappop(heap)
            self._bank_access_parallelism[thread] -= 1

    def bank_access_parallelism(self, thread_id: int) -> int:
        """Banks currently servicing requests from the thread (Table 1)."""
        return self._bank_access_parallelism[thread_id]

    def has_work(self) -> bool:
        return self.queues.total_reads() > 0 or self.queues.total_writes() > 0

    def _schedule_channel(self, channel: Channel, now: int) -> None:
        queues = self.queues.channels[channel.index]
        draining = self._update_drain_mode(channel.index, queues)
        if draining:
            per_bank = self._scan_writes(channel, queues, now)
        else:
            per_bank = self._scan_reads(channel, queues, now)
        if not per_bank:
            return
        candidate = self.policy.select(channel.index, per_bank, now)
        if candidate is None:
            return
        self._issue(channel, candidate, per_bank, now)

    def _update_drain_mode(self, channel_index: int, queues) -> bool:
        """One write-drain mode transition: drain from the high watermark
        (or whenever no reads wait) down to the low watermark."""
        writes = queues.write_count
        if self._draining[channel_index]:
            draining = writes > self.write_drain_low
        else:
            draining = writes >= self.write_drain_high or (
                queues.read_count == 0 and writes > 0
            )
        self._draining[channel_index] = draining
        return draining

    def _scan_reads(
        self, channel: Channel, queues, now: int
    ) -> dict[int, list[CommandCandidate]]:
        """Build the ready read candidates of every bank."""
        per_bank: dict[int, list[CommandCandidate]] = {}
        for bank_index, queue in enumerate(queues.bank_queues):
            if not queue:
                continue
            bank = channel.banks[bank_index]
            candidates: list[CommandCandidate] = []
            for request in queue:
                kind = bank.next_command_for(request.coords.row)
                # Per-bank selection respects only bank constraints;
                # channel constraints (data bus) are checked at the
                # across-bank level via `channel_ready` (Section 2.3).
                if not bank.is_ready(kind, now):
                    continue
                channel_ready = not kind.is_column or channel.column_ready(now)
                candidates.append(
                    CommandCandidate(
                        kind,
                        request,
                        bank_index,
                        bank.command_latency(kind),
                        channel_ready=channel_ready,
                    )
                )
            if candidates:
                per_bank[bank_index] = candidates
        return per_bank

    def _scan_writes(
        self, channel: Channel, queues, now: int
    ) -> dict[int, list[CommandCandidate]]:
        """Build the ready write candidates (write-drain mode)."""
        per_bank: dict[int, list[CommandCandidate]] = {}
        for request in queues.write_queue:
            bank_index = request.coords.bank
            bank = channel.banks[bank_index]
            kind = bank.next_command_for(request.coords.row)
            if kind.is_column:
                kind = WRITE
            if not bank.is_ready(kind, now):
                continue
            channel_ready = not kind.is_column or channel.column_ready(now)
            candidate = CommandCandidate(
                kind,
                request,
                bank_index,
                bank.command_latency(kind),
                channel_ready=channel_ready,
            )
            per_bank.setdefault(bank_index, []).append(candidate)
        return per_bank

    # -- event-kernel fast path ---------------------------------------------
    #
    # Same decisions as `_schedule_channel`, computed incrementally: the
    # per-bank read candidates are cached between bank-state changes
    # (see _BankCandidateCache) and write candidates are built with the
    # bank state machine inlined.  DESIGN.md §3.14 carries the
    # equivalence argument; the differential tests in
    # tests/test_event_kernel.py and tests/test_candidate_builders.py
    # enforce it.

    def _schedule_channel_fast(self, channel: Channel, now: int) -> None:
        queues = self.queues.channels[channel.index]
        draining = self._update_drain_mode(channel.index, queues)
        if draining:
            per_bank = self._write_candidates(channel, queues, now)
        else:
            per_bank = self._fast_per_bank(channel, queues, now)
        if not per_bank:
            return
        candidate = self.policy.select(channel.index, per_bank, now)
        if candidate is None:
            return
        self._issue(channel, candidate, per_bank, now)

    def _fast_per_bank(
        self, channel: Channel, queues, now: int
    ) -> dict[int, list[CommandCandidate]]:
        """Cached equivalent of `_scan_reads`'s per-bank candidates."""
        cache = self._scan_caches[channel.index]
        cands = cache.cands
        col_ready = channel.column_ready(now)
        if col_ready != cache.col_ready:
            # The data-bus predicate is channel-global: rewrite the bit
            # on every cached column candidate in one sweep.
            for lst in cands:
                if lst:
                    for candidate in lst:
                        if candidate.is_column:
                            candidate.channel_ready = col_ready
            cache.col_ready = col_ready
        per_bank = cache.per_bank
        if per_bank is not None and now < cache.per_bank_until:
            return per_bank
        per_bank = {}
        expires = cache.expires
        banks = channel.banks
        until = _NEVER
        for bank_index, queue in enumerate(queues.bank_queues):
            if not queue:
                continue
            lst = cands[bank_index]
            if lst is None or now >= expires[bank_index]:
                lst, expiry = self._rebuild_bank(
                    banks[bank_index], bank_index, queue, now, col_ready
                )
                cands[bank_index] = lst
                expires[bank_index] = expiry
            if expires[bank_index] < until:
                until = expires[bank_index]
            if lst:
                per_bank[bank_index] = lst
        cache.per_bank = per_bank
        cache.per_bank_until = until
        return per_bank

    def _rebuild_bank(
        self, bank, bank_index: int, queue, now: int, col_ready: bool
    ) -> "tuple[list[CommandCandidate], int]":
        """Rebuild one bank's candidate list; returns (list, expiry)."""
        timing = self.timing
        busy_until = bank.busy_until
        if now < busy_until:
            return [], busy_until
        open_row = bank.open_row
        out: list[CommandCandidate] = []
        if open_row is None:
            latency = timing.rcd
            for request in queue:
                out.append(
                    CommandCandidate(
                        ACTIVATE, request, bank_index, latency
                    )
                )
            return out, _NEVER
        expiry = _NEVER
        ras_at = bank.activated_at + timing.ras
        ras_ok = now >= ras_at
        column_latency = timing.cl + timing.burst
        rp = timing.rp
        for request in queue:
            if request.row == open_row:
                out.append(
                    CommandCandidate(
                        READ,
                        request,
                        bank_index,
                        column_latency,
                        channel_ready=col_ready,
                    )
                )
            elif ras_ok:
                out.append(
                    CommandCandidate(PRECHARGE, request, bank_index, rp)
                )
            else:
                expiry = ras_at
        return out, expiry

    def _write_candidates(
        self, channel: Channel, queues, now: int
    ) -> dict[int, list[CommandCandidate]]:
        """Fast-path equivalent of `_scan_writes`.

        Bank classification and readiness are inlined: the bank state
        machine's `next_command_for`/`is_ready` composition collapses to
        three branches for a known-write request.
        """
        per_bank: dict[int, list[CommandCandidate]] = {}
        banks = channel.banks
        timing = self.timing
        col_ready = channel.column_ready(now)
        column_latency = timing.cl + timing.burst
        rcd = timing.rcd
        rp = timing.rp
        ras = timing.ras
        for request in queues.write_queue:
            bank_index = request.bank
            bank = banks[bank_index]
            if now < bank.busy_until:
                continue
            open_row = bank.open_row
            if open_row is None:
                candidate = CommandCandidate(
                    ACTIVATE, request, bank_index, rcd
                )
            elif open_row == request.row:
                candidate = CommandCandidate(
                    WRITE,
                    request,
                    bank_index,
                    column_latency,
                    channel_ready=col_ready,
                )
            elif now >= bank.activated_at + ras:
                candidate = CommandCandidate(
                    PRECHARGE, request, bank_index, rp
                )
            else:
                continue
            lst = per_bank.get(bank_index)
            if lst is None:
                per_bank[bank_index] = [candidate]
            else:
                lst.append(candidate)
        return per_bank

    # Kept only because perfbench's ``trace_simulator`` wraps it by name.
    def fast_forward_drain(self, *args):
        raise NotImplementedError

    def _issue(
        self,
        channel: Channel,
        candidate: CommandCandidate,
        per_bank: dict[int, list[CommandCandidate]],
        now: int,
    ) -> None:
        """Apply ``candidate``, chosen from ``per_bank``, at ``now``."""
        request = candidate.request
        bank = channel.banks[candidate.bank_index]
        kind = candidate.kind
        self.commands_issued += 1
        # The issued bank's state (busy window, open row, queue
        # membership) changes below — drop its cached candidates.
        self._scan_caches[channel.index].invalidate(candidate.bank_index)
        if kind is PRECHARGE:
            self.queues.count_row_hits(
                channel.index, bank.index, bank.open_row, -1
            )
            channel.issue(bank, kind, request.coords.row, now)
            request.got_precharge = True
        elif kind is ACTIVATE:
            channel.issue(bank, kind, request.coords.row, now)
            self.queues.count_row_hits(
                channel.index, bank.index, request.row, 1
            )
            request.got_activate = True
        else:
            data_end = channel.issue(bank, kind, request.coords.row, now)
            request.completed_at = data_end + self.timing.overhead
            stats = self.thread_stats[request.thread_id]
            if request.is_write:
                self.queues.remove_write(request)
                stats.writes_completed += 1
            else:
                self.queues.remove_read(request)
                latency = request.completed_at - request.arrival
                stats.record_read(request.service_outcome(), latency)
                heapq.heappush(
                    self._in_service, (request.completed_at, request.thread_id)
                )
                self._bank_access_parallelism[request.thread_id] += 1
                if self._read_listener is not None:
                    self._read_listener(request.thread_id, request.completed_at)
            if self.page_policy == "closed":
                # After the serviced request left the queue: close the row
                # unless another request to it is still pending.
                self._maybe_auto_precharge(channel, bank, request, now)
            self.policy.on_request_completed(request, now)
        self.policy.on_command_issued(candidate, per_bank, now)

    def _maybe_auto_precharge(
        self, channel: Channel, bank, request: MemoryRequest, now: int
    ) -> None:
        """Closed-page policy: precharge after the last pending column.

        The row stays open only while more requests to the same row are
        queued (a read-burst optimization real closed-page controllers
        also apply); otherwise the bank precharges immediately after the
        burst, respecting tRAS.
        """
        row = request.coords.row
        queue = self.queues.channels[channel.index].bank_queues[
            request.coords.bank
        ]
        if any(r.coords.row == row for r in queue):
            return
        # No queued read hits the row, so closing it leaves the queues'
        # row-hit counts as they are (tests/test_interference_receivers.py
        # checks them after every command).
        precharge_start = max(
            now + self.timing.burst, bank.activated_at + self.timing.ras
        )
        if self.sanitizer is not None:
            self.sanitizer.on_auto_precharge(
                channel.index, bank.index, now, precharge_start
            )
        bank.open_row = None
        bank.busy_until = precharge_start + self.timing.rp
