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
pending L2 miss); the simulator wires a ``tshared_source`` callable in
place of the paper's counter communicated with each memory request.
"""

from __future__ import annotations

from typing import Callable

from repro.core.estimator import InterferenceEstimator, check_estimator_params
from repro.core.registers import (
    StfmRegisters,
    check_alpha,
    estimate_slowdown,
)
from repro.dram.commands import CommandCandidate
from repro.schedulers.base import SchedulingPolicy


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
                track measured slowdowns within ~20% — see the
                ``ablate-gamma`` experiment and DESIGN.md).
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
        # Only the literal ready basis reads the scan's ready sets.
        self.needs_ready_sets = interference_basis == "ready"
        self.registers = StfmRegisters(
            num_threads, interval_length=interval_length, weights=weights
        )
        self.estimator: InterferenceEstimator | None = None
        self._tshared_source: Callable[[int], int] = lambda thread_id: 0
        self._tshared_all: Callable[[], list[int]] = lambda: [0] * num_threads
        # Bound in bind(): the controller's per-thread queued-read
        # counts (read in place each cycle) and its DRAM cycle length.
        self._queued_reads: list[int] = []
        self._dram_cycle = 0
        # Decision state recomputed each DRAM cycle.
        self.fairness_mode = False
        self.max_slowdown_thread: int | None = None
        self.last_unfairness = 1.0
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

    def set_tshared_source(
        self,
        source: Callable[[int], int],
        counters: "Callable[[], list[int]] | None" = None,
    ) -> None:
        """Wire the per-thread memory-stall counters of the cores.

        ``counters``, when given, returns a new list of every thread's
        counter in one call; each DRAM cycle reads them all.
        """
        self._tshared_source = source
        threads = range(self.num_threads)
        self._tshared_all = counters or (lambda: [source(t) for t in threads])

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
            thread_id, self._tshared_source(thread_id)
        )

    # -- per-cycle decision --------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        """One DRAM cycle: advance the reset interval, then decide.

        The decision is one pass over the threads with queued reads,
        reading every thread's stall counter in one call and the
        register fields in place.  Ties on the maximum slowdown go to
        the larger thread id.
        """
        counters = self._tshared_all()
        self.total_cycles += 1
        registers = self.registers
        registers.interval_counter += self._dram_cycle
        if registers.interval_counter >= registers.interval_length:
            registers.reset_interval(counters)
        queued = self._queued_reads
        threads = registers.threads
        active = 0
        s_max = s_min = 0.0
        t_max = None
        for t in range(self.num_threads):
            if not queued[t]:
                continue
            thread = threads[t]
            s = estimate_slowdown(
                counters[t] - thread.tshared_offset,
                thread.t_interference,
                thread.weight,
            )
            if not active:
                s_max = s_min = s
                t_max = t
            else:
                if s >= s_max:
                    s_max = s
                    t_max = t
                if s < s_min:
                    s_min = s
            active += 1
        self.max_slowdown_thread = t_max
        if active < 2:
            self.fairness_mode = False
            self.last_unfairness = 1.0
            return
        self.last_unfairness = s_max / max(s_min, 1e-9)
        self.fairness_mode = self.last_unfairness > self.alpha
        if self.fairness_mode:
            self.fairness_cycles += 1

    def slowdown_of(self, thread_id: int) -> float:
        """Current raw slowdown estimate of a thread (diagnostics)."""
        return self.registers.slowdown(thread_id, self._tshared_source(thread_id))

    def priority_key(self, candidate: CommandCandidate, now: int):
        favored = (
            1
            if self.fairness_mode
            and candidate.thread_id == self.max_slowdown_thread
            else 0
        )
        return (favored, 1 if candidate.is_column else 0, -candidate.arrival)

    # -- event hooks -----------------------------------------------------------
    def on_command_issued(self, candidate, scan, now) -> None:
        assert self.estimator is not None
        self.estimator.on_command_issued(candidate, scan, now)

    @property
    def fairness_rule_fraction(self) -> float:
        """Fraction of DRAM cycles spent under the fairness rule."""
        if not self.total_cycles:
            return 0.0
        return self.fairness_cycles / self.total_cycles
