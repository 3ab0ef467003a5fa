"""Tests for traces and the streaming trace cursor."""

import tracemalloc

import pytest

from repro.cpu.trace import Trace, TraceCursor, TraceRecord
from repro.engine.jobs import budget_for
from repro.experiments.base import SCALES
from repro.sim.config import SystemConfig
from repro.workloads.spec2006 import SPEC2006
from repro.workloads.synthetic import SyntheticTraceGenerator


def simple_trace(loop=True) -> Trace:
    return Trace(
        [
            TraceRecord(compute=10, is_write=False, address=0x1000),
            TraceRecord(compute=0, is_write=True, address=0x2000),
            TraceRecord(compute=5, is_write=False, address=0x3000, dependent=True),
        ],
        loop=loop,
    )


class TestTrace:
    def test_lengths(self):
        trace = simple_trace()
        assert len(trace) == 3
        assert trace.memory_operations == 3
        assert trace.read_count == 2
        assert trace.instructions_per_pass == 10 + 1 + 0 + 1 + 5 + 1

    def test_mpki(self):
        trace = simple_trace()
        assert trace.mpki() == pytest.approx(3000 / 18)

    def test_tuple_records_coerced(self):
        trace = Trace([(3, False, 0x40, False)])
        assert isinstance(trace.records[0], TraceRecord)

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Trace([TraceRecord(-1, False, 0)])

    def test_compute_too_large_for_its_column_rejected(self):
        with pytest.raises(ValueError):
            Trace([TraceRecord(2**32, False, 0)])

    def test_address_too_large_for_its_column_rejected(self):
        with pytest.raises(ValueError):
            Trace([TraceRecord(0, False, 2**64)])

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Trace([TraceRecord(0, True, -64)])

    def test_records_round_trip(self):
        records = simple_trace().records
        assert records == [
            TraceRecord(10, False, 0x1000, False),
            TraceRecord(0, True, 0x2000, False),
            TraceRecord(5, False, 0x3000, True),
        ]
        assert Trace(records).records == records
        assert list(Trace(records)) == records

    def test_empty_trace(self):
        trace = Trace([])
        assert trace.instructions_per_pass == 0
        assert trace.mpki() == 0.0


class TestTraceCursor:
    def test_compute_then_memory(self):
        cursor = TraceCursor(simple_trace())
        assert cursor.peek_compute() == 10
        assert cursor.peek_memory() is None  # compute not yet drained
        assert cursor.take_compute(4) == 4
        assert cursor.take_compute(100) == 6
        record = cursor.peek_memory()
        assert record is not None and record.address == 0x1000
        cursor.take_memory()
        assert cursor.peek_compute() == 0  # next record has 0 compute
        assert cursor.peek_memory().is_write

    def test_looping(self):
        cursor = TraceCursor(simple_trace(loop=True))
        for _ in range(2):  # two full passes
            for _ in range(3):
                cursor.take_compute(cursor.peek_compute())
                cursor.take_memory()
        assert cursor.passes == 2
        assert not cursor.exhausted

    def test_non_looping_exhausts(self):
        cursor = TraceCursor(simple_trace(loop=False))
        for _ in range(3):
            cursor.take_compute(cursor.peek_compute())
            cursor.take_memory()
        assert cursor.exhausted
        assert cursor.peek_compute() == 0
        assert cursor.peek_memory() is None

    def test_take_memory_requires_drained_compute(self):
        cursor = TraceCursor(simple_trace())
        with pytest.raises(RuntimeError):
            cursor.take_memory()

    def test_empty_trace_exhausted_immediately(self):
        cursor = TraceCursor(Trace([]))
        assert cursor.exhausted


def mcf_trace() -> Trace:
    spec = SPEC2006["mcf"]
    generator = SyntheticTraceGenerator(SystemConfig().mapper(), 1)
    return generator.trace_for(spec, budget_for(spec, SCALES["small"].budget))


def cursor_stream(trace: Trace, passes: int, chunk: int) -> list[TraceRecord]:
    """The records a cursor yields over up to ``passes`` passes, taking
    compute ``chunk`` instructions at a time as the core does."""
    cursor = TraceCursor(trace)
    stream = []
    while not cursor.exhausted and cursor.passes < passes:
        compute = 0
        while cursor.peek_compute():
            assert cursor.peek_memory() is None
            compute += cursor.take_compute(chunk)
        record = cursor.peek_memory()
        stream.append(
            TraceRecord(compute, record.is_write, record.address, record.dependent)
        )
        cursor.take_memory()
    assert cursor.peek_memory() is None or cursor.passes == passes
    return stream


class TestCursorMatchesRecords:
    """Stepping a cursor gives the same stream as ``Trace.records``."""

    @pytest.mark.parametrize("loop", [True, False])
    @pytest.mark.parametrize(
        "records",
        [
            mcf_trace().records,
            simple_trace().records,
            [TraceRecord(7, False, 0x40, True)],
            [],
        ],
        ids=["generated", "three", "one", "empty"],
    )
    def test_stream(self, records, loop):
        trace = Trace(records, loop=loop)
        passes = 3 if loop else 1
        for chunk in (1, 3, 128):
            assert cursor_stream(trace, 3, chunk) == records * passes

    def test_generated_trace_loops(self):
        trace = mcf_trace()
        assert trace.loop
        assert cursor_stream(trace, 2, 5) == trace.records * 2


def test_trace_keeps_at_most_32_bytes_per_record():
    """A generated trace holds its columns, not one object per record."""
    spec = SPEC2006["mcf"]
    generator = SyntheticTraceGenerator(SystemConfig().mapper(), 1)
    budget = budget_for(spec, SCALES["small"].budget)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = generator.trace_for(spec, budget)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) > 1000
    assert kept <= 32 * len(trace)
