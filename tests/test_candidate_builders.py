"""The event kernel's candidate builders against the naive ones.

The event kernel caches each bank's read candidates between bank-state
changes (``MemoryController._fast_per_bank``) and builds write
candidates with the bank state machine inlined
(``MemoryController._write_candidates``).  The naive kernel's
``_scan_reads``/``_scan_writes`` build both eagerly and are the oracle.
Over random bank, bus and queue states, in read mode and in write-drain
mode, the two must offer the same candidates with the same data-bus
readiness.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

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
)
def test_cached_candidates_match_naive_builders(
    banks, stream, bus_busy_until, now
):
    harness = ControllerHarness(
        num_threads=4, num_banks=NUM_BANKS, write_capacity=64
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

    naive = controller._scan_reads(channel, queues, now)
    cached = controller._fast_per_bank(channel, queues, now)
    assert candidate_ids(cached) == candidate_ids(naive)
    naive = controller._scan_writes(channel, queues, now)
    built = controller._write_candidates(channel, queues, now)
    assert candidate_ids(built) == candidate_ids(naive)
