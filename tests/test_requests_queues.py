"""Tests for memory requests and the request queues."""

import pytest

from repro.controller.queues import RequestQueues
from repro.controller.request import MemoryRequest
from repro.dram.address import AddressMapper
from repro.dram.bank import RowBufferOutcome


def make_request(
    mapper: AddressMapper,
    thread: int = 0,
    bank: int = 0,
    row: int = 0,
    column: int = 0,
    channel: int = 0,
    is_write: bool = False,
    arrival: int = 0,
) -> MemoryRequest:
    address = mapper.compose(channel, bank, row, column)
    return MemoryRequest(thread, address, mapper.decode(address), is_write, arrival)


class TestMemoryRequest:
    def test_service_outcome_hit(self, mapper):
        request = make_request(mapper)
        assert request.service_outcome() is RowBufferOutcome.ROW_HIT

    def test_service_outcome_closed(self, mapper):
        request = make_request(mapper)
        request.got_activate = True
        assert request.service_outcome() is RowBufferOutcome.ROW_CLOSED

    def test_service_outcome_conflict(self, mapper):
        request = make_request(mapper)
        request.got_precharge = True
        request.got_activate = True
        assert request.service_outcome() is RowBufferOutcome.ROW_CONFLICT

    def test_done_tracks_completion(self, mapper):
        request = make_request(mapper)
        assert not request.done
        request.completed_at = 100
        assert request.done


class TestRequestQueues:
    @pytest.fixture
    def queues(self) -> RequestQueues:
        return RequestQueues(num_channels=2, num_banks=8, num_threads=3)

    def test_enqueue_and_counts(self, queues, mapper):
        two_channel = AddressMapper(num_channels=2)
        request = make_request(two_channel, thread=1, bank=3)
        assert queues.enqueue_read(request)
        assert queues.queued_read_counts[1] == 1
        assert queues.total_reads() == 1
        assert queues.threads_with_reads() == [1]

    def test_waiting_bank_count_tracks_distinct_banks(self):
        mapper = AddressMapper(num_channels=2)
        queues = RequestQueues(2, 8, 2)
        for bank in (0, 0, 3):
            queues.enqueue_read(make_request(mapper, thread=0, bank=bank))
        assert queues.waiting_banks[0] == 2  # banks 0 and 3

    def test_waiting_bank_count_distinguishes_channels(self):
        mapper = AddressMapper(num_channels=2)
        queues = RequestQueues(2, 8, 1)
        queues.enqueue_read(make_request(mapper, bank=0, channel=0))
        queues.enqueue_read(make_request(mapper, bank=0, channel=1))
        assert queues.waiting_banks[0] == 2

    def test_remove_read_restores_counts(self):
        mapper = AddressMapper(num_channels=2)
        queues = RequestQueues(2, 8, 2)
        first = make_request(mapper, thread=0, bank=0)
        second = make_request(mapper, thread=0, bank=0)
        queues.enqueue_read(first)
        queues.enqueue_read(second)
        queues.remove_read(first)
        assert queues.waiting_banks[0] == 1
        queues.remove_read(second)
        assert queues.waiting_banks[0] == 0
        assert queues.threads_with_reads() == []

    def test_read_capacity_enforced(self):
        mapper = AddressMapper()
        queues = RequestQueues(1, 8, 1, read_capacity=2)
        assert queues.enqueue_read(make_request(mapper, row=1))
        assert queues.enqueue_read(make_request(mapper, row=2))
        assert not queues.enqueue_read(make_request(mapper, row=3))

    def test_write_capacity_enforced(self):
        mapper = AddressMapper()
        queues = RequestQueues(1, 8, 1, write_capacity=1)
        assert queues.enqueue_write(make_request(mapper, is_write=True))
        assert not queues.enqueue_write(make_request(mapper, is_write=True, row=5))

    def test_writes_do_not_affect_read_bookkeeping(self):
        mapper = AddressMapper()
        queues = RequestQueues(1, 8, 1)
        queues.enqueue_write(make_request(mapper, is_write=True))
        assert queues.waiting_banks[0] == 0
        assert queues.queued_read_counts[0] == 0
        assert queues.total_writes() == 1
