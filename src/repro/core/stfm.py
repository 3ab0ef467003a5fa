"""The STFM scheduling policy (Sections 3.2.1, 3.3 and 5.2).

Every DRAM cycle the policy:

1. computes each active thread's (weighted) memory slowdown
   ``S = Tshared / (Tshared - Tinterference)`` from the register file,
2. computes system unfairness ``Smax / Smin`` over threads that currently
   have requests in the buffer,
3. if unfairness exceeds the threshold ``alpha``, switches to the
   *fairness rule* — commands of the most-slowed-down thread first, then
   column-first, then oldest-first; otherwise applies plain FR-FCFS to
   maximize throughput.

``Tshared`` is supplied by the cores (cycles the oldest instruction was a
pending L2 miss).  In place of the paper's counter communicated with each
memory request, the simulator wires the cores themselves, and each DRAM
cycle reads their ``memory_stall_cycles`` counters where they live.
"""

from __future__ import annotations

from collections.abc import Sequence
from types import SimpleNamespace
from typing import Callable

from repro.core.estimator import InterferenceEstimator, check_estimator_params
from repro.core.registers import StfmRegisters, check_alpha, slowdown_extremes
from repro.dram.commands import CommandCandidate
from repro.schedulers.base import CLASS_RANK, SchedulingPolicy


class StfmPolicy(SchedulingPolicy):
    """Stall-Time Fair Memory scheduler."""

    name = "STFM"

    def __init__(
        self,
        num_threads: int,
        alpha: float = 1.10,
        gamma: float = 1.0,
        interval_length: int = 1 << 24,
        weights: list[float] | None = None,
        interference_basis: str = "waiting",
    ) -> None:
        """Create the policy.

        Args:
            num_threads: Threads sharing the memory system.
            alpha: Maximum tolerable unfairness (Section 6.3 uses 1.10;
                system software may set it, a very large value disables
                hardware fairness — Section 3.3).
            gamma: Bank-parallelism scaling factor of the interference
                estimate.  The paper tuned gamma = 1/2 empirically for
                its accounting; our waiting-basis accounting at DRAM
                command granularity calibrates best at 1.0 (estimates
                track measured slowdowns within ~20-30% — see the
                ``ablate-gamma`` experiment and DESIGN.md §3.10; the
                figure is unverified until estimated-vs-measured
                slowdown is recorded, ROADMAP item 3).
            interval_length: Register reset period in cycles.
            weights: Per-thread weights; higher weight means the thread
                tolerates less slowdown and is prioritized sooner.
            interference_basis: 'waiting' (default) or 'ready' — see
                :class:`repro.core.estimator.InterferenceEstimator`.
        """
        super().__init__()
        check_estimator_params(gamma, interference_basis)
        self.num_threads = num_threads
        self.alpha = check_alpha(alpha)
        self.gamma = gamma
        self.interference_basis = interference_basis
        self.registers = StfmRegisters(
            num_threads, interval_length=interval_length, weights=weights
        )
        self.estimator: InterferenceEstimator | None = None
        # Per thread, an object whose ``memory_stall_cycles`` is the
        # thread's stall counter: the cores, once wired.
        self._cores: Sequence = [
            SimpleNamespace(memory_stall_cycles=0)
        ] * num_threads
        # Bound in bind(): the controller's per-thread queued-read
        # counts (read in place each cycle) and its DRAM cycle length.
        self._queued_reads: list[int] = []
        self._dram_cycle = 0
        # Decision state recomputed each DRAM cycle.
        self.fairness_mode = False
        self.max_slowdown_thread: int | None = None
        self.last_unfairness = 1.0
        # The thread the fairness rule favours (None outside fairness
        # mode), the one thread a class above the rest in class_of.
        self._favored: int | None = None
        self.class_of = [0] * num_threads
        # Diagnostics.
        self.fairness_cycles = 0
        self.total_cycles = 0

    def bind(self, controller) -> None:
        super().bind(controller)
        self._queued_reads = controller.queues.queued_read_counts
        self._dram_cycle = controller.timing.dram_cycle
        self.estimator = InterferenceEstimator(
            self.registers,
            controller,
            gamma=self.gamma,
            basis=self.interference_basis,
        )

    def set_stall_counters(self, cores: Sequence) -> None:
        """Wire the cores, one per thread: each DRAM cycle reads their
        ``memory_stall_cycles`` counters in place."""
        self._cores = cores

    def set_tshared_source(self, source: Callable[[int], int]) -> None:
        """Wire the stall counters through a ``thread -> counter``
        callable, for drivers without cores."""
        self.set_stall_counters(
            [_SourcedCounter(source, t) for t in range(self.num_threads)]
        )

    # -- system-software interface (Section 3.3) -------------------------
    def set_alpha(self, alpha: float) -> None:
        """Privileged update of the maximum tolerable unfairness.

        A very large value effectively disables hardware-enforced
        fairness (the controller then always applies FR-FCFS).
        """
        self.alpha = check_alpha(alpha)

    def set_thread_weight(self, thread_id: int, weight: float) -> None:
        """Convey a new thread weight from the system software."""
        self.registers.set_weight(thread_id, weight)

    def notify_context_switch(self, thread_id: int) -> None:
        """Reset the hardware thread's registers at a context switch."""
        self.registers.context_switch(
            thread_id, self._cores[thread_id].memory_stall_cycles
        )

    # -- per-cycle decision --------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        """One DRAM cycle: advance the reset interval, then decide.

        The decision is one pass over the threads with queued reads
        (:func:`~repro.core.registers.slowdown_extremes`), reading the
        register fields and the cores' stall counters in place.  Ties on
        the maximum slowdown go to the larger thread id.
        """
        self.total_cycles += 1
        registers = self.registers
        registers.interval_counter += self._dram_cycle
        if registers.interval_counter >= registers.interval_length:
            registers.reset_interval(
                [core.memory_stall_cycles for core in self._cores]
            )
        active, s_max, t_max, s_min = slowdown_extremes(
            registers.threads, self._cores, self._queued_reads
        )
        self.max_slowdown_thread = t_max
        favored = None
        if active < 2:
            self.fairness_mode = False
            self.last_unfairness = 1.0
        else:
            unfairness = s_max / (s_min if s_min >= 1e-9 else 1e-9)
            self.last_unfairness = unfairness
            fair = self.fairness_mode = unfairness > self.alpha
            if fair:
                self.fairness_cycles += 1
                favored = t_max
        if favored != self._favored:
            class_of = self.class_of
            if self._favored is not None:
                class_of[self._favored] = 0
            if favored is not None:
                class_of[favored] = CLASS_RANK
            self._favored = favored

    def slowdown_of(self, thread_id: int) -> float:
        """Current raw slowdown estimate of a thread (diagnostics)."""
        return self.registers.slowdown(
            thread_id, self._cores[thread_id].memory_stall_cycles
        )

    def priority_key(self, candidate: CommandCandidate, now: int):
        """The fairness rule's order; ``select`` ranks by ``class_of``."""
        favored = (
            1
            if self.fairness_mode
            and candidate.thread_id == self.max_slowdown_thread
            else 0
        )
        return (favored, 1 if candidate.is_column else 0, -candidate.arrival)

    # -- event hooks -----------------------------------------------------------
    def on_command_issued(self, candidate, per_bank, now) -> None:
        assert self.estimator is not None
        self.estimator.on_command_issued(candidate, per_bank, now)

    @property
    def fairness_rule_fraction(self) -> float:
        """Fraction of DRAM cycles spent under the fairness rule."""
        if not self.total_cycles:
            return 0.0
        return self.fairness_cycles / self.total_cycles


class _SourcedCounter:
    """A thread's stall counter read through a ``thread -> counter``
    callable, in the shape of a core's ``memory_stall_cycles``."""

    __slots__ = ("_source", "_thread")

    def __init__(self, source: Callable[[int], int], thread: int) -> None:
        self._source = source
        self._thread = thread

    @property
    def memory_stall_cycles(self) -> int:
        return self._source(self._thread)
