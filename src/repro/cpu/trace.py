"""Instruction traces driving the core model.

A trace is a sequence of records ``(compute, is_write, address,
dependent)``: ``compute`` non-memory instructions followed by one memory
operation (an L2 miss or a writeback) to ``address``.  ``dependent``
marks a load that consumes the value of the previous load (pointer
chasing) and therefore cannot issue until that load returns — this is
how the workload models limit memory-level parallelism.

Traces loop by default: per the standard multiprogrammed-workload
methodology, a thread that finishes its instruction budget keeps
re-executing to continue applying memory pressure until every thread in
the workload reaches its budget.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


class TraceRecord(NamedTuple):
    """One trace entry: a compute block followed by a memory operation."""

    compute: int
    is_write: bool
    address: int
    dependent: bool = False


class Trace:
    """An in-memory, loopable instruction trace."""

    def __init__(self, records: Iterable[TraceRecord], loop: bool = True) -> None:
        self.records = [
            record if isinstance(record, TraceRecord) else TraceRecord(*record)
            for record in records
        ]
        self.loop = loop
        for record in self.records:
            if record.compute < 0:
                raise ValueError("compute block cannot be negative")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def instructions_per_pass(self) -> int:
        """Instructions in one pass (memory ops count as one each)."""
        return sum(record.compute + 1 for record in self.records)

    @property
    def memory_operations(self) -> int:
        return len(self.records)

    @property
    def read_count(self) -> int:
        return sum(1 for record in self.records if not record.is_write)

    def mpki(self) -> float:
        """Memory operations per kilo-instruction of this trace."""
        instructions = self.instructions_per_pass
        if not instructions:
            return 0.0
        return 1000.0 * self.memory_operations / instructions


class TraceCursor:
    """Streaming consumption of a trace with compute-block splitting.

    The core fetches instructions a few at a time; the cursor tracks how
    much of the current record's compute block has been fetched and
    whether its memory operation is still pending, wrapping around when
    the trace loops.
    """

    __slots__ = ("trace", "_index", "_compute_left", "_mem_pending", "passes")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._index = 0
        self.passes = 0
        if trace.records:
            first = trace.records[0]
            self._compute_left = first.compute
            self._mem_pending = True
        else:
            self._compute_left = 0
            self._mem_pending = False

    @property
    def exhausted(self) -> bool:
        """True when a non-looping trace has been fully consumed."""
        if not self.trace.records:
            return True
        return (
            not self.trace.loop
            and self._index >= len(self.trace.records)
        )

    def peek_compute(self) -> int:
        """Compute instructions available before the next memory op.

        An exhausted cursor has neither this nor a pending memory op: an
        empty trace starts with both cleared, and only ``take_memory``,
        which needs both drained, can run a non-looping trace out.
        """
        return self._compute_left

    def take_compute(self, count: int) -> int:
        """Consume up to ``count`` compute instructions; returns taken."""
        taken = min(count, self._compute_left)
        self._compute_left -= taken
        return taken

    def peek_memory(self) -> TraceRecord | None:
        """The pending memory operation, if the compute block is drained."""
        if self._compute_left > 0 or not self._mem_pending:
            return None
        return self.trace.records[self._index]

    def take_memory(self) -> None:
        """Consume the pending memory operation and advance the cursor."""
        if self._compute_left > 0 or not self._mem_pending:
            raise RuntimeError("no memory operation pending")
        self._mem_pending = False
        self._advance()

    def _advance(self) -> None:
        self._index += 1
        if self._index >= len(self.trace.records):
            if self.trace.loop:
                self._index = 0
                self.passes += 1
            else:
                return
        record = self.trace.records[self._index]
        self._compute_left = record.compute
        self._mem_pending = True
