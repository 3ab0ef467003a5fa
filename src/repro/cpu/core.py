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

#: Sentinel for "no submit can happen before an already-bounded event".
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
        probe: "Callable[[int, int, bool], bool] | None" = None,
        on_snapshot: "Callable[[Core], None] | None" = None,
    ) -> None:
        """Create the core.

        Args:
            probe: Optional side-effect-free admission probe
                ``(thread_id, address, is_write) -> bool`` (would the
                controller accept this submit right now?).  Required for
                :meth:`quiet_state` to prove a fetch blocked on a full
                buffer; without it the core is never considered quiet.
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

        # Cumulative counters (keep growing after the budget snapshot so
        # the thread continues to exert realistic memory pressure).
        self.committed_instructions = 0
        self.memory_stall_cycles = 0
        self.write_stall_cycles = 0
        self.idle_cycles = 0
        self.reads_issued = 0
        self.writes_issued = 0

        self.probe = probe
        self.on_snapshot = on_snapshot
        self.snapshot: CoreSnapshot | None = None

    # -- fetch -----------------------------------------------------------
    def _fetch(self, now: int) -> bool:
        """Fill the window from the trace, submitting misses and stores.

        Returns True when fetch took no compute and stopped on something
        only this core's own reads can release: a full window, the MLP
        cap, or a dependent load waiting on ``_last_read``.  A full read
        or write buffer (freed by other threads' commands too) and an
        exhausted trace return False.
        """
        cursor = self.cursor
        window = self._window
        window_size = self.window_size
        instrs = self._window_instrs
        own = False
        took_compute = False
        while instrs < window_size:
            compute_available = cursor.peek_compute()
            if compute_available:
                took_compute = True
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
        return own and not took_compute

    # -- execute ----------------------------------------------------------
    def step(self, now: int, cycles: int) -> bool:
        """Advance the core by ``cycles`` CPU cycles starting at ``now``.

        Returns True when the core stalled on memory for the whole span
        while its fetch was blocked on its own reads (see :meth:`_fetch`).
        Until one of those reads is scheduled or returns, every later
        step would only add to ``memory_stall_cycles``: the event kernel
        lets such a core sleep until :meth:`wake_tick`.
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
                        return blocked and t == now
                    t = wake
        return False

    def wake_tick(self, since: int, quantum: int) -> int:
        """The tick at which a core put to sleep by :meth:`step` at
        ``since`` must step again: the quantum holding the earliest known
        completion after ``since`` among its outstanding reads (``NEVER``
        when none is scheduled yet).

        Any own-read completion wakes the core, whether or not it frees
        an MSHR (see :meth:`MshrFile.release_completed`).  Completions at
        or before ``since`` were already seen by that step's fetch.
        """
        done_at = self.mshrs.earliest_completion(since)
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

    # -- quiescence (event kernel) ----------------------------------------
    def inertia(self, now: int) -> "tuple[str | None, int]":
        """Classify this core for the event kernel's jump analysis.

        Returns ``(state, submit_bound)``:

        * ``state`` — ``"idle"`` (empty window, nothing fetchable),
          ``"stall"`` (window head is an incomplete memory op),
          ``"compute"`` (the core makes internal progress — committing
          and/or fetching compute — without touching the memory system),
          or ``None`` when the core acts on the controller this very
          quantum (a completed head commits, or a submit is imminent).
        * ``submit_bound`` — a proven lower bound on the CPU cycle of
          this core's next ``submit`` call, assuming no request
          completes and no command issues before it (the jump horizon's
          heap/channel/refresh bounds enforce exactly that).  ``NEVER``
          when every path to a submit runs through such an event:

          - trace exhausted — permanent;
          - read/write buffer full — frees only when a command issues
            or retires;
          - dependent load / MSHR limit — frees only at a completion
            time, and every pending completion sits in the controller's
            in-service heap.

          Otherwise the next memory record must first enter the window:
          the compute ahead of it has to be fetched and committed, and
          commits cannot outpace ``commit_width`` per cycle, giving
          ``now + ceil(missing_room / width)``.

        ``"compute"`` is only reported when the window is empty or a
        single compute block and the cursor still holds compute — the
        precondition for :meth:`advance_compute`'s exact closed-form
        replay.  Mixed windows or draining blocks return ``None`` and
        are handled by live ticks.
        """
        window = self._window
        if window:
            entry = window[0]
            if entry[0] == _COMPUTE:
                if len(window) > 1:
                    # Mixed window (memory entries behind the compute
                    # head): commit pacing has no closed form; live-tick.
                    return None, now
                state = "compute"
            else:
                done_at = entry[1].completed_at
                if done_at is not None and done_at <= now:
                    return None, now  # head commits this quantum
                state = "stall"
        else:
            state = "idle"
        if self.probe is None:
            return None, now  # cannot prove the buffers full; no jumps
        cursor = self.cursor
        chunk = cursor.peek_compute()
        if chunk:
            if state == "idle":
                state = "compute"  # will fetch and commit this compute
            # Conservatively assume a memory record directly follows the
            # chunk (peek_compute sees only the current block).
            need = self._window_instrs + chunk + 1 - self.window_size
            if need <= 0:
                return None, now  # the record may be fetched right now
            if state == "stall":
                return state, _NEVER  # stalled head: no commits, no room
            width = self.commit_width
            return state, now + (need + width - 1) // width
        if state == "compute":
            # Compute block draining with no top-up: the closed-form
            # replay (top-up every quantum) does not apply; live-tick
            # the few quanta until the window empties.
            return None, now
        record = cursor.peek_memory()
        if record is None:
            return state, _NEVER  # trace exhausted
        bound = self._record_bound(record, now)
        if bound is not None:
            return state, bound
        if self._window_instrs + 1 > self.window_size:
            return state, _NEVER  # stalled head: no commits, no room
        return None, now  # the record can be fetched right now

    def _record_bound(self, record, now: int) -> "int | None":
        """``NEVER`` if the pending record is resource-blocked on an
        event the jump horizon already bounds; ``None`` if resources are
        available (window room decides)."""
        if record.is_write:
            if self.probe(self.core_id, record.address, True):
                return None
            return _NEVER  # write buffer frees only on a write issue
        if record.dependent and self._last_read is not None:
            previous = self._last_read
            if previous.completed_at is None or previous.completed_at > now:
                return _NEVER  # pointer chase on an incomplete load
        self.mshrs.release_completed(now)
        if len(self.mshrs) >= self.max_outstanding:
            return _NEVER  # MLP limit / all MSHRs busy until a completion
        if self.probe(self.core_id, record.address, False):
            return None
        return _NEVER  # read buffer frees only on retire

    def window_has_inflight(self, now: int) -> bool:
        """Any window entry waiting on an incomplete memory request.

        Such an entry can become the head mid-window and flip the core
        from committing to stalling, changing the slope of
        ``memory_stall_cycles`` — policies that replay per-cycle stall
        counters (STFM) must exclude those cores from jumps.
        """
        for entry in self._window:
            if entry[0] == _MEMORY:
                done_at = entry[1].completed_at
                if done_at is None or done_at > now:
                    return True
        return False

    def advance_compute(self, now: int, span: int, quantum: int) -> None:
        """Closed-form replay of ``span`` pure-compute CPU cycles.

        Preconditions (established by :meth:`inertia` returning
        ``"compute"`` plus the jump horizon's bounds): the window is
        empty or a single compute block, the cursor's compute chunk
        outlasts the window, and no submit, budget crossing, completion
        or command issue occurs inside it.  Under those, the naive
        per-quantum trajectory is exact: ``_fetch`` tops the window up
        to capacity at every quantum boundary and commit retires exactly
        ``commit_width`` instructions per cycle, so the end state is
        computable in O(1):

        * commits: ``width * span``;
        * fetched: the initial top-up to ``window_size`` plus one
          quantum's worth of commits at each later boundary;
        * the window ends one quantum of commits below capacity.
        """
        width = self.commit_width
        commits = width * span
        per_quantum = width * quantum
        window = self._window
        w0 = self._window_instrs
        take = (self.window_size - w0) + per_quantum * (span // quantum - 1)
        taken = self.cursor.take_compute(take)
        if taken != take:  # pragma: no cover - guarded by inertia's bound
            raise RuntimeError("compute jump outran the trace chunk")
        if window:
            window[0][1] += taken - commits
        else:
            window.append([_COMPUTE, taken - commits])
        self._window_instrs = w0 + taken - commits
        self._commit(commits, now + span)

    def bulk_advance(self, state: str, cycles: int) -> None:
        """Apply the counter effect of ``cycles`` quiet CPU cycles.

        Exactly what per-quantum :meth:`step` calls would have done in
        the given quiet state: idle cores accrue ``idle_cycles``, stalled
        cores accrue ``memory_stall_cycles``.
        """
        if state == "idle":
            self.idle_cycles += cycles
        else:
            self.memory_stall_cycles += cycles

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
