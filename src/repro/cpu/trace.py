"""Instruction traces driving the core model.

A trace is a sequence of records ``(compute, is_write, address,
dependent)``: ``compute`` non-memory instructions followed by one memory
operation (an L2 miss or a writeback) to ``address``.  ``dependent``
marks a load that consumes the value of the previous load (pointer
chasing) and therefore cannot issue until that load returns — this is
how the workload models limit memory-level parallelism.

A trace is stored by column, not as one object per record: the compute
counts in an ``array("I")`` (4 bytes each), the addresses in an
``array("Q")`` (8 bytes each) and the two flags packed into one byte per
record (:data:`WRITE`, :data:`DEPENDENT`): 13 bytes per record, where
a list of :class:`TraceRecord` tuples takes some 120.  A process keeps
up to 256 traces in the memo of :func:`repro.engine.jobs.build_trace`.
:class:`TraceCursor` reads the columns in place; ``records`` and
iteration build :class:`TraceRecord` tuples on demand for everything
else.

Traces loop by default: per the standard multiprogrammed-workload
methodology, a thread that finishes its instruction budget keeps
re-executing to continue applying memory pressure until every thread in
the workload reaches its budget.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, NamedTuple

#: Column type codes: unsigned 32-bit compute counts, unsigned 64-bit
#: addresses.
COMPUTE_TYPE = "I"
ADDRESS_TYPE = "Q"
#: Bits of a record's flag byte.
WRITE = 1
DEPENDENT = 2
#: Flag byte -> (is_write, dependent).
_DECODE = tuple((bool(f & WRITE), bool(f & DEPENDENT)) for f in range(4))


class TraceRecord(NamedTuple):
    """One trace entry: a compute block followed by a memory operation."""

    compute: int
    is_write: bool
    address: int
    dependent: bool = False


class Trace:
    """An in-memory, loopable instruction trace, stored by column."""

    __slots__ = ("computes", "addresses", "flags", "loop")

    def __init__(self, records: Iterable[TraceRecord], loop: bool = True) -> None:
        computes = array(COMPUTE_TYPE)
        addresses = array(ADDRESS_TYPE)
        flags = bytearray()
        for record in records:
            compute, is_write, address, dependent = (
                record if isinstance(record, TraceRecord) else TraceRecord(*record)
            )
            if compute < 0:
                raise ValueError("compute block cannot be negative")
            try:
                computes.append(compute)
            except OverflowError:
                raise ValueError(f"compute block {compute} is too large") from None
            try:
                addresses.append(address)
            except OverflowError:
                raise ValueError(f"address {address:#x} is out of range") from None
            flags.append((WRITE if is_write else 0) | (DEPENDENT if dependent else 0))
        self.computes = computes
        self.addresses = addresses
        self.flags = bytes(flags)
        self.loop = loop

    @classmethod
    def from_columns(
        cls, computes: array, addresses: array, flags: bytes, loop: bool = True
    ) -> Trace:
        """A trace over ready-made columns of equal length, taken as
        they are: the trace generator's path, which builds valid
        columns by construction."""
        trace = cls.__new__(cls)
        trace.computes = computes
        trace.addresses = addresses
        trace.flags = flags
        trace.loop = loop
        return trace

    def __len__(self) -> int:
        return len(self.flags)

    def __iter__(self) -> Iterator[TraceRecord]:
        for compute, address, flags in zip(self.computes, self.addresses, self.flags):
            is_write, dependent = _DECODE[flags]
            yield TraceRecord(compute, is_write, address, dependent)

    @property
    def records(self) -> list[TraceRecord]:
        """The records, built afresh on each access."""
        return list(self)

    @property
    def instructions_per_pass(self) -> int:
        """Instructions in one pass (memory ops count as one each)."""
        return sum(self.computes) + len(self)

    @property
    def memory_operations(self) -> int:
        return len(self)

    @property
    def read_count(self) -> int:
        return sum(1 for flags in self.flags if not flags & WRITE)

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
    the trace loops.  It holds the pending record's ``is_write``,
    ``address`` and ``dependent`` itself and stands in for that record,
    so stepping through a trace builds no object per record.
    """

    __slots__ = (
        "_computes", "_addresses", "_flags", "_loop", "_size", "_index",
        "_compute_left", "_mem_pending", "passes",
        "is_write", "address", "dependent",
    )

    def __init__(self, trace: Trace) -> None:
        self._computes = trace.computes
        self._addresses = trace.addresses
        self._flags = trace.flags
        self._loop = trace.loop
        self._size = len(trace)
        self._index = 0
        self.passes = 0
        self._mem_pending = self._size > 0
        if self._mem_pending:
            self._load(0)
        else:
            self._compute_left = 0

    def _load(self, index: int) -> None:
        self._compute_left = self._computes[index]
        self.is_write, self.dependent = _DECODE[self._flags[index]]
        self.address = self._addresses[index]

    @property
    def exhausted(self) -> bool:
        """True when a non-looping trace has been fully consumed."""
        return not self._size or (not self._loop and self._index >= self._size)

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

    def peek_memory(self) -> TraceCursor | None:
        """The pending memory operation, if the compute block is drained:
        the cursor itself, whose ``is_write``, ``address`` and
        ``dependent`` describe it until :meth:`take_memory`."""
        if self._compute_left or not self._mem_pending:
            return None
        return self

    def take_memory(self) -> None:
        """Consume the pending memory operation and advance the cursor."""
        if self._compute_left or not self._mem_pending:
            raise RuntimeError("no memory operation pending")
        index = self._index + 1
        if index >= self._size:
            if not self._loop:
                self._index = index
                self._mem_pending = False
                return
            index = 0
            self.passes += 1
        self._index = index
        self._load(index)
