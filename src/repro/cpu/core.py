"""The analytical out-of-order core model.

Models the performance-relevant behaviour of the paper's cores (Table 2:
4 GHz, 128-entry instruction window, 3-wide, at most one memory operation
per cycle, 64 MSHRs):

* **Fetch runs ahead of commit** by up to the window size, issuing L2
  misses to the memory controller as soon as they enter the window — this
  is what creates memory-level parallelism (multiple misses outstanding).
* **Commit** retires up to 3 instructions per cycle; a load at the head
  of the window blocks commit until its data returns.  Cycles in which
  nothing commits because the oldest instruction is a pending L2 miss are
  counted as *memory stall time* — exactly the paper's ``Tshared``
  definition (Section 3.2.1).
* **Writebacks** retire immediately into the controller's write buffer;
  a full write buffer back-pressures fetch.
* **Dependent loads** (pointer chasing) cannot issue until the previous
  load returns, limiting MLP per the workload model.

The core advances in quanta (one DRAM cycle, 10 CPU cycles) but resolves
events to exact CPU cycles inside each quantum, so stall accounting is
cycle-precise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.cpu.mshr import MshrFile
from repro.cpu.trace import Trace, TraceCursor

if TYPE_CHECKING:
    from repro.controller.request import MemoryRequest

#: Window-entry tags.
_COMPUTE = 0
_MEMORY = 1

#: Sentinel wake tick: no own read is scheduled yet.
_NEVER = 1 << 62

#: Submit callback: (thread_id, address, is_write, now) -> request or None
#: (None when the controller's buffer is full; the core retries).
SubmitFn = Callable[[int, int, bool, int], "MemoryRequest | None"]


@dataclass(frozen=True)
class CoreSnapshot:
    """Statistics frozen at the moment a core reaches its budget."""

    instructions: int
    cycles: int
    memory_stall_cycles: int
    reads_issued: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mcpi(self) -> float:
        """Memory Cycles Per Instruction (the paper's MCPI metric)."""
        if not self.instructions:
            return 0.0
        return self.memory_stall_cycles / self.instructions

    @property
    def mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.reads_issued / self.instructions


class Core:
    """One processing core executing a trace."""

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        submit: SubmitFn,
        instruction_budget: int,
        window_size: int = 128,
        commit_width: int = 3,
        mshr_count: int = 64,
        max_outstanding: int | None = None,
        on_snapshot: "Callable[[Core], None] | None" = None,
    ) -> None:
        """Create the core.

        Args:
            on_snapshot: Called once when the core crosses its
                instruction budget (O(1) finish detection in the run
                loop, instead of polling every core each quantum).
        """
        self.core_id = core_id
        self.cursor = TraceCursor(trace)
        self.submit = submit
        self.instruction_budget = instruction_budget
        self.window_size = window_size
        self.commit_width = commit_width
        self.mshrs = MshrFile(mshr_count)
        # The application's sustainable memory-level parallelism; the
        # hardware MSHR count caps it further.  See BenchmarkSpec.mlp.
        if max_outstanding is None:
            max_outstanding = mshr_count
        self.max_outstanding = min(max_outstanding, mshr_count)

        # Window entries: [tag, payload]; payload is a remaining-count for
        # compute blocks or the MemoryRequest for loads.
        self._window: deque[list] = deque()
        self._window_instrs = 0
        self._last_read: "MemoryRequest | None" = None
        # First cycle of the stall that ended the last step.
        self._stall_start = 0

        # Cumulative counters (keep growing after the budget snapshot so
        # the thread continues to exert realistic memory pressure).
        self.committed_instructions = 0
        self.memory_stall_cycles = 0
        self.write_stall_cycles = 0
        self.idle_cycles = 0
        self.reads_issued = 0
        self.writes_issued = 0

        self.on_snapshot = on_snapshot
        self.snapshot: CoreSnapshot | None = None

    # -- fetch -----------------------------------------------------------
    def _fetch(self, now: int) -> bool:
        """Fill the window from the trace, submitting misses and stores.

        Returns True when fetch stopped on something only this core's
        own reads can release: a full window, the MLP cap, or a
        dependent load waiting on ``_last_read``.  A full read or write
        buffer (freed by other threads' commands too) and an exhausted
        trace return False.
        """
        cursor = self.cursor
        window = self._window
        window_size = self.window_size
        instrs = self._window_instrs
        own = False
        while instrs < window_size:
            compute_available = cursor.peek_compute()
            if compute_available:
                room = window_size - instrs
                taken = cursor.take_compute(
                    room if room < compute_available else compute_available
                )
                if window and window[-1][0] == _COMPUTE:
                    window[-1][1] += taken
                else:
                    window.append([_COMPUTE, taken])
                instrs += taken
                continue
            record = cursor.peek_memory()
            if record is None:
                break  # trace exhausted (non-looping) or nothing pending
            if record.is_write:
                request = self.submit(self.core_id, record.address, True, now)
                if request is None:
                    break  # write buffer full; retry next quantum
                self.writes_issued += 1
                cursor.take_memory()
                # The store itself retires freely: one compute instruction.
                if window and window[-1][0] == _COMPUTE:
                    window[-1][1] += 1
                else:
                    window.append([_COMPUTE, 1])
                instrs += 1
                continue
            # Demand load (L2 miss).
            if record.dependent and self._last_read is not None:
                previous = self._last_read
                if previous.completed_at is None or previous.completed_at > now:
                    own = True
                    break  # pointer chase: wait for the previous load
            self.mshrs.release_completed(now)
            if len(self.mshrs) >= self.max_outstanding:
                own = True
                break  # MLP limit / all MSHRs busy; no further misses
            request = self.submit(self.core_id, record.address, False, now)
            if request is None:
                break  # request buffer full
            self.mshrs.try_allocate(request, now)
            self._last_read = request
            self.reads_issued += 1
            cursor.take_memory()
            window.append([_MEMORY, request])
            instrs += 1
        else:
            own = True  # window full
        self._window_instrs = instrs
        return own

    # -- execute ----------------------------------------------------------
    def step(self, now: int, cycles: int) -> bool:
        """Advance the core by ``cycles`` CPU cycles starting at ``now``.

        Returns True when the core stalled on memory through the end of
        the span while its fetch was blocked on its own reads (see
        :meth:`_fetch`), however late in the span the stall began.  The
        stall commits nothing, so until one of those reads is scheduled
        or returns, the next fetch would find the same full window or
        the same blocked record, and every later step would only add to
        ``memory_stall_cycles``: the event kernel lets such a core sleep
        until :meth:`wake_tick`.
        """
        t = now
        end = now + cycles
        window = self._window
        width = self.commit_width
        while t < end:
            blocked = self._fetch(t)
            if not window:
                self.idle_cycles += end - t
                return False
            entry = window[0]
            if entry[0] == _COMPUTE:
                remaining = entry[1]
                budget_cycles = end - t
                cycles_needed = -(-remaining // width)  # ceil division
                if cycles_needed <= budget_cycles:
                    t += cycles_needed
                    self._commit(remaining, t)
                    self._window_instrs -= remaining
                    window.popleft()
                else:
                    committed = budget_cycles * width
                    entry[1] -= committed
                    self._window_instrs -= committed
                    self._commit(committed, end)
                    t = end
            else:
                request = entry[1]
                done_at = request.completed_at
                if done_at is not None and done_at <= t:
                    window.popleft()
                    self._window_instrs -= 1
                    t += 1  # at most one memory op commits per cycle
                    self._commit(1, t)
                else:
                    wake = end if done_at is None else min(end, done_at)
                    self.memory_stall_cycles += wake - t
                    if wake >= end:
                        self._stall_start = t
                        return blocked
                    t = wake
        return False

    def wake_tick(self, quantum: int) -> int:
        """The tick at which a core put to sleep by :meth:`step` must
        step again: the quantum holding the earliest known completion
        among its outstanding reads after the stall began (``NEVER``
        when none is scheduled yet).

        Any own-read completion wakes the core, whether or not it frees
        an MSHR (see :meth:`MshrFile.release_completed`).  Completions at
        or before the stall's first cycle were already seen by the fetch
        that blocked there.
        """
        done_at = self.mshrs.earliest_completion(self._stall_start)
        if done_at is None:
            return _NEVER
        return done_at - done_at % quantum

    def _commit(self, count: int, now: int) -> None:
        self.committed_instructions += count
        if (
            self.snapshot is None
            and self.committed_instructions >= self.instruction_budget
        ):
            self.snapshot = CoreSnapshot(
                instructions=self.committed_instructions,
                cycles=max(now, 1),
                memory_stall_cycles=self.memory_stall_cycles,
                reads_issued=self.reads_issued,
            )
            if self.on_snapshot is not None:
                self.on_snapshot(self)

    # Kept only because perfbench's ``trace_simulator`` wraps them by name.
    def advance_compute(self, *args):
        raise NotImplementedError

    def bulk_advance(self, *args):
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """The core reached its instruction budget (or ran out of trace)."""
        return self.snapshot is not None or (
            self.cursor.exhausted and not self._window
        )

    def force_snapshot(self, now: int) -> CoreSnapshot:
        """Snapshot at the current point (trace exhausted before budget)."""
        if self.snapshot is None:
            self.snapshot = CoreSnapshot(
                instructions=max(self.committed_instructions, 1),
                cycles=max(now, 1),
                memory_stall_cycles=self.memory_stall_cycles,
                reads_issued=self.reads_issued,
            )
        return self.snapshot
