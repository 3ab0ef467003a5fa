"""Tests for the MSHR file."""

import pytest

from repro.controller.request import MemoryRequest
from repro.cpu.mshr import MshrFile
from repro.dram.address import AddressMapper


def make_request(row: int = 0) -> MemoryRequest:
    mapper = AddressMapper()
    address = mapper.compose(0, 0, row, 0)
    return MemoryRequest(0, address, mapper.decode(address), False, 0)


class TestMshrFile:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MshrFile(0)

    def test_allocate_until_full(self):
        mshrs = MshrFile(2)
        assert mshrs.try_allocate(make_request(1), 0)
        assert mshrs.try_allocate(make_request(2), 0)
        assert not mshrs.try_allocate(make_request(3), 0)
        assert len(mshrs) == 2

    def test_release_on_completion(self):
        mshrs = MshrFile(1)
        request = make_request(1)
        assert mshrs.try_allocate(request, 0)
        assert not mshrs.try_allocate(make_request(2), 50)
        request.completed_at = 100
        assert not mshrs.try_allocate(make_request(2), 99)
        assert mshrs.try_allocate(make_request(2), 100)

    def test_out_of_order_completion_reclaimed_when_full(self):
        mshrs = MshrFile(2)
        first = make_request(1)
        second = make_request(2)
        mshrs.try_allocate(first, 0)
        mshrs.try_allocate(second, 0)
        second.completed_at = 50  # completes before the head
        assert mshrs.try_allocate(make_request(3), 60)  # full sweep frees it
        assert len(mshrs) == 2

    def test_out_of_order_completion_holds_its_slot_below_capacity(self):
        """Pinned quirk (DESIGN.md §3.10): below ``capacity`` only the
        head is released, so a read that completed behind an incomplete
        one keeps its slot.  Cores stop at their MLP cap, far below the
        64 MSHRs, so this is what they see."""
        mshrs = MshrFile(64)
        first = make_request(1)
        second = make_request(2)
        mshrs.try_allocate(first, 0)
        mshrs.try_allocate(second, 0)
        second.completed_at = 50  # completes before the head
        mshrs.release_completed(60)
        assert len(mshrs) == 2
        first.completed_at = 70  # the head completes: both go
        mshrs.release_completed(70)
        assert len(mshrs) == 0

    def test_earliest_completion(self):
        mshrs = MshrFile(4)
        requests = [make_request(row) for row in range(3)]
        for request in requests:
            mshrs.try_allocate(request, 0)
        assert mshrs.earliest_completion(0) is None  # none scheduled yet
        requests[1].completed_at = 90
        requests[2].completed_at = 40
        assert mshrs.earliest_completion(0) == 40
        assert mshrs.earliest_completion(40) == 90  # only later ones count
        assert mshrs.earliest_completion(90) is None
