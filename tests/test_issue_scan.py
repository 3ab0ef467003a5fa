"""The event kernel's issue-time scan against the naive scan.

At each issue the event kernel builds only the part of the ScanInfo the
issued command's consumers read (``MemoryController._issue_scan``): the
issued bank's ready threads and, for a column command, that bank's
oldest row-access arrival and the channel-wide ready column threads.
The naive kernel's ``_scan_reads``/``_scan_writes`` build the whole
ScanInfo and are the oracle.  Over random bank, bus and queue states, in
read mode and in write-drain mode, every field a consumer reads for
every issuable (channel-ready) candidate must agree.  The interference
receivers of the default waiting basis come from queue counters instead
(``test_interference_receivers.py``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.schedulers.frfcfs import FrFcfsPolicy
from tests.conftest import ControllerHarness

NUM_BANKS = 4

bank_states = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 3)),  # open row
        st.integers(0, 200),                      # busy until
        st.integers(0, 200),                      # activated at
    ),
    min_size=NUM_BANKS,
    max_size=NUM_BANKS,
)

requests = st.lists(
    st.tuples(
        st.integers(0, 3),            # thread
        st.integers(0, NUM_BANKS - 1),  # bank
        st.integers(0, 3),            # row
        st.integers(0, 150),          # arrival
        st.booleans(),                # is write
    ),
    min_size=1,
    max_size=24,
)


class ScanReader(FrFcfsPolicy):
    """FR-FCFS ordering plus a scan consumer (as STFM is)."""

    needs_scan = True

    def __init__(self, needs_ready_sets: bool) -> None:
        super().__init__()
        self.needs_ready_sets = needs_ready_sets


def consumer_view(scan, candidate, ready: bool) -> dict:
    """Every ScanInfo field a consumer may read for ``candidate``."""
    bank = candidate.bank_index
    view = {"channel": scan.channel}
    if ready:
        view["ready_bank"] = scan.ready_threads_by_bank.get(bank)
    if candidate.is_column:
        view["oldest_row_access"] = scan.oldest_row_access_arrival.get(bank)
        if ready:
            view["ready_columns"] = scan.ready_column_threads
    return view


def candidate_ids(per_bank) -> set:
    return {
        (bank, c.kind, c.request.seq, c.channel_ready)
        for bank, candidates in per_bank.items()
        for c in candidates
    }


@settings(max_examples=150, deadline=None)
@given(
    banks=bank_states,
    stream=requests,
    bus_busy_until=st.integers(0, 400),
    now=st.integers(150, 260),
    ready=st.booleans(),
)
def test_issue_scan_matches_naive_scan(banks, stream, bus_busy_until, now, ready):
    harness = ControllerHarness(
        policy=ScanReader(ready), num_threads=4, num_banks=NUM_BANKS,
        write_capacity=64,
    )
    controller = harness.controller
    channel = controller.channels[0]
    for (thread, bank, row, arrival, is_write) in stream:
        harness.now = arrival
        harness.submit(thread, bank=bank, row=row, is_write=is_write)
    for bank, (open_row, busy_until, activated_at) in zip(channel.banks, banks):
        bank.open_row = open_row
        bank.busy_until = busy_until
        bank.activated_at = activated_at
    channel.data_bus_busy_until = bus_busy_until
    queues = controller.queues.channels[0]

    for draining in (False, True):
        if draining:
            naive_per_bank, naive = controller._scan_writes(channel, queues, now)
            per_bank = controller._write_candidates(channel, queues, now)
        else:
            naive_per_bank, naive = controller._scan_reads(channel, queues, now)
            per_bank = controller._fast_per_bank(channel, queues, now)
        assert candidate_ids(per_bank) == candidate_ids(naive_per_bank)
        for candidates in per_bank.values():
            for candidate in candidates:
                if not candidate.channel_ready:
                    continue  # select() never issues it
                scan = controller._issue_scan(
                    channel, queues, candidate, per_bank, draining
                )
                assert consumer_view(scan, candidate, ready) == consumer_view(
                    naive, candidate, ready
                ), (draining, candidate)
