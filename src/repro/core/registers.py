"""STFM's register file (Table 1 of the paper).

Per hardware thread the scheduler maintains:

* ``Tshared`` — cycles the thread could not commit instructions due to an
  L2 miss, supplied by the core.  Stored here as an *offset* against the
  core's monotonically increasing stall counter so that the register can
  be reset every ``IntervalLength`` cycles, as the hardware does to adapt
  to phase behaviour (Section 5.1).
* ``Tinterference`` — extra stall cycles attributed to other threads,
  computed in the memory controller (Section 3.2.2).
* ``LastRowAddress`` — per thread per bank, the last row the thread
  accessed; used to decide what the row-buffer outcome *would have been*
  had the thread run alone.
* ``Weight`` — the system-software-assigned thread weight (Section 3.3).

``BankWaitingParallelism`` and ``BankAccessParallelism`` are maintained
incrementally by the request queues and the controller respectively and
are read through them rather than duplicated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


#: Saturation value for the slowdown estimate.  The hardware stores
#: slowdowns in 8-bit fixed point (Table 1); we saturate rather than wrap.
SLOWDOWN_CAP = 128.0


def estimate_slowdown(
    shared: int, interference: float, weight: "float | None" = None
) -> float:
    """Memory slowdown ``S = Tshared / (Tshared - Tinterference)``.

    The single home of the formula: the register file and STFM's
    per-cycle decision both evaluate it here, so the two cannot drift
    apart in float rounding.  ``Talone`` is
    estimated as ``Tshared - Tinterference`` (Section 3.2.2).  Saturates
    at :data:`SLOWDOWN_CAP`; a thread with no stall time yet has
    slowdown 1 (it cannot have been slowed).  Negative interference
    (constructive sharing, footnote 10) can make the slowdown dip
    below 1.

    With a ``weight``, returns the weight-scaled slowdown
    ``S' = 1 + (S - 1) * Weight`` instead: threads with higher weights
    are interpreted as more slowed down and thus prioritized earlier
    (Section 3.3).
    """
    if shared <= 0:
        raw = 1.0
    else:
        alone = shared - interference
        raw = SLOWDOWN_CAP if alone <= shared / SLOWDOWN_CAP else shared / alone
    if weight is None:
        return raw
    return 1.0 + (raw - 1.0) * weight


def check_alpha(alpha: float) -> float:
    """Validate an unfairness threshold: finite and at least 1.

    ``alpha`` below 1 is meaningless (``Smax >= Smin``), and a NaN would
    silently disable fairness, since no unfairness compares above it.
    """
    if not (math.isfinite(alpha) and alpha >= 1.0):
        raise ValueError(
            f"alpha must be a finite number >= 1.0 (Smax >= Smin), got {alpha!r}"
        )
    return alpha


def check_weight(weight: float) -> float:
    """Validate a thread weight: finite and non-negative."""
    if not (math.isfinite(weight) and weight >= 0):
        raise ValueError(
            f"weights must be finite and non-negative, got {weight!r}"
        )
    return weight


@dataclass
class ThreadRegisters:
    """Registers of a single hardware thread."""

    weight: float = 1.0
    tshared_offset: int = 0
    t_interference: float = 0.0
    #: global bank id -> last row this thread accessed there.
    last_row: dict[int, int] = field(default_factory=dict)

    def reset(self, current_stall_cycles: int) -> None:
        """Interval reset: zero the slowdown-estimation state."""
        self.tshared_offset = current_stall_cycles
        self.t_interference = 0.0
        self.last_row.clear()


class StfmRegisters:
    """The full register file plus the slowdown computation.

    Args:
        num_threads: Hardware threads tracked.
        interval_length: Cycles between register resets (``2**24``
            baseline; Section 6.3 notes fairness degrades below ``2**18``).
        weights: Optional per-thread weights (Section 3.3); default 1.
    """

    def __init__(
        self,
        num_threads: int,
        interval_length: int = 1 << 24,
        weights: list[float] | None = None,
    ) -> None:
        if weights is None:
            weights = [1.0] * num_threads
        if len(weights) != num_threads:
            raise ValueError("need one weight per thread")
        for weight in weights:
            check_weight(weight)
        if (
            isinstance(interval_length, bool)
            or not isinstance(interval_length, int)
            or interval_length < 1
        ):
            raise ValueError(
                "interval_length must be a positive integer, "
                f"got {interval_length!r}"
            )
        self.num_threads = num_threads
        self.interval_length = interval_length
        self.threads = [ThreadRegisters(weight=w) for w in weights]
        self.interval_counter = 0
        self.resets = 0

    def advance_interval(self, cycles: int, stall_counters: list[int]) -> bool:
        """Advance the interval counter; reset registers when it expires.

        Args:
            cycles: CPU cycles since the previous call.
            stall_counters: Current cumulative stall counters of the cores
                (used to rebase the ``Tshared`` offsets).

        Returns:
            True when a reset occurred this call.
        """
        self.interval_counter += cycles
        if self.interval_counter < self.interval_length:
            return False
        self.reset_interval(stall_counters)
        return True

    def reset_interval(self, stall_counters: list[int]) -> None:
        """Start a new interval: reset every thread's registers."""
        self.interval_counter = 0
        self.resets += 1
        for thread, stalls in zip(self.threads, stall_counters):
            thread.reset(stalls)

    def context_switch(self, thread_id: int, stall_counter: int) -> None:
        """Reset one hardware thread's registers at a context switch.

        Table 1: per-thread registers are reset at every context switch
        (the new software thread must not inherit the old one's slowdown
        history).  ``stall_counter`` is the core's cumulative stall
        counter at the switch, used to rebase ``Tshared``.
        """
        self.threads[thread_id].reset(stall_counter)

    def set_weight(self, thread_id: int, weight: float) -> None:
        """System-software update of a thread's weight (Section 3.3)."""
        self.threads[thread_id].weight = check_weight(weight)

    def tshared(self, thread_id: int, stall_counter: int) -> int:
        """``Tshared``: stall cycles accumulated in the current interval."""
        return stall_counter - self.threads[thread_id].tshared_offset

    def slowdown(self, thread_id: int, stall_counter: int) -> float:
        """Raw memory slowdown of a thread (see :func:`estimate_slowdown`)."""
        return estimate_slowdown(
            self.tshared(thread_id, stall_counter),
            self.threads[thread_id].t_interference,
        )

    def weighted_slowdown(self, thread_id: int, stall_counter: int) -> float:
        """Weight-scaled slowdown of a thread (see
        :func:`estimate_slowdown`)."""
        thread = self.threads[thread_id]
        return estimate_slowdown(
            self.tshared(thread_id, stall_counter),
            thread.t_interference,
            thread.weight,
        )

    def add_interference(self, thread_id: int, cycles: float) -> None:
        self.threads[thread_id].t_interference += cycles

    def last_row(self, thread_id: int, global_bank: int) -> int | None:
        return self.threads[thread_id].last_row.get(global_bank)

    def record_row(self, thread_id: int, global_bank: int, row: int) -> None:
        self.threads[thread_id].last_row[global_bank] = row
