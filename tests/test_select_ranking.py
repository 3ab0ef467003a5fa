"""The integer ranking of ``SchedulingPolicy.select`` against priority_key.

FR-FCFS, STFM, BLISS, STAGED and MISE-STFM rank candidates by one
integer built from a per-thread class table (``class_of``) and the
candidate's own fields.  Their ``priority_key`` states the same order
as a tuple.  The reference below is the two-level ``priority_key`` loop:
per bank the first maximum wins, across banks the first maximum among
channel-ready bank winners, and a bank whose winner waits for the data
bus issues nothing.  The integer loop must pick the very same candidate
object, over random candidate sets (equal arrivals across banks, mixed
command kinds, mixed ``channel_ready``) and over class tables reached
through each policy's own events, and at every decision of real runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mise import MiseStfmPolicy
from repro.core.stfm import StfmPolicy
from repro.dram.commands import ACTIVATE, PRECHARGE, READ, WRITE, CommandCandidate
from repro.schedulers.base import ARRIVAL_LIMIT, SchedulingPolicy
from repro.schedulers.bliss import BlissPolicy
from repro.schedulers.frfcfs import FrFcfsPolicy
from repro.schedulers.staged import StagedPolicy
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from tests.conftest import ControllerHarness
from tests.test_pinned_results import simulate

NUM_THREADS = 4
NUM_BANKS = 8


def reference_select(policy, per_bank, now):
    """The two-level priority_key loop (the documented order)."""
    best = None
    best_key = None
    for candidates in per_bank.values():
        winner = None
        winner_key = None
        for candidate in candidates:
            key = policy.priority_key(candidate, now)
            if winner is None or key > winner_key:
                winner = candidate
                winner_key = key
        if winner is None or not winner.channel_ready:
            continue
        if best is None or winner_key > best_key:
            best = winner
            best_key = winner_key
    return best


# -- random candidate sets ----------------------------------------------------

#: Few distinct arrivals, so equal arrivals across banks are common, plus
#: both ends of the range the integer key encodes.
arrivals = st.one_of(
    st.sampled_from([0, 1, 2, 3]),
    st.sampled_from([ARRIVAL_LIMIT - 2, ARRIVAL_LIMIT - 1]),
)

candidate_fields = st.tuples(
    st.integers(0, NUM_THREADS - 1),              # thread
    arrivals,
    st.sampled_from([PRECHARGE, ACTIVATE, READ, WRITE]),
    st.booleans(),                                # channel ready
)

per_bank_fields = st.dictionaries(
    st.integers(0, NUM_BANKS - 1),
    st.lists(candidate_fields, min_size=1, max_size=5),
    max_size=NUM_BANKS,
)


def build_per_bank(harness, fields) -> dict:
    per_bank = {}
    for bank, entries in fields.items():
        candidates = []
        for thread, arrival, kind, channel_ready in entries:
            request = harness.controller.make_request(
                thread, harness.address(bank, 0), kind is WRITE, arrival
            )
            candidates.append(
                CommandCandidate(kind, request, bank, 1, channel_ready)
            )
        per_bank[bank] = candidates
    return per_bank


def assert_same_winner(policy, harness, fields, now=0) -> None:
    per_bank = build_per_bank(harness, fields)
    assert policy.select(0, per_bank, now) is reference_select(
        policy, per_bank, now
    )


# -- class tables reached through each policy's events ----------------------

queued_masks = st.lists(
    st.booleans(), min_size=NUM_THREADS, max_size=NUM_THREADS
)


def set_queued(harness, mask) -> None:
    """Which threads count as having queued reads (STFM, MISE-STFM)."""
    counts = harness.controller.queues.queued_read_counts
    for thread, queued in enumerate(mask):
        counts[thread] = 1 if queued else 0


def bound(policy) -> ControllerHarness:
    return ControllerHarness(
        policy=policy, num_threads=NUM_THREADS, num_banks=NUM_BANKS
    )


@settings(max_examples=60, deadline=None)
@given(fields=st.lists(per_bank_fields, min_size=1, max_size=4))
def test_frfcfs(fields):
    policy = FrFcfsPolicy()
    harness = bound(policy)
    for step in fields:
        assert_same_winner(policy, harness, step)


stfm_steps = st.lists(
    st.tuples(
        # Per thread: stall cycles, and the share of them interference.
        st.lists(
            st.tuples(st.integers(1, 10_000), st.floats(0.0, 0.95)),
            min_size=NUM_THREADS,
            max_size=NUM_THREADS,
        ),
        queued_masks,
        per_bank_fields,
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1.0, 3.0), steps=stfm_steps)
def test_stfm(alpha, steps):
    policy = StfmPolicy(NUM_THREADS, alpha=alpha)
    harness = bound(policy)
    counters = [0] * NUM_THREADS
    policy.set_tshared_source(lambda t: counters[t])
    registers = policy.registers
    for stalls, mask, fields in steps:
        for thread, (stall, share) in enumerate(stalls):
            counters[thread] = registers.threads[thread].tshared_offset + stall
            registers.threads[thread].t_interference = stall * share
        set_queued(harness, mask)
        policy.begin_cycle(harness.now)
        assert_same_winner(policy, harness, fields)


@settings(max_examples=60, deadline=None)
@given(
    threshold=st.integers(1, 3),
    clearing_interval=st.integers(1, 6),
    steps=st.lists(
        st.tuples(
            st.lists(st.integers(0, NUM_THREADS - 1), max_size=8),
            per_bank_fields,
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_bliss(threshold, clearing_interval, steps):
    policy = BlissPolicy(
        NUM_THREADS, threshold=threshold, clearing_interval=clearing_interval
    )
    harness = bound(policy)
    for served, fields in steps:
        for thread in served:
            request = harness.controller.make_request(thread, 0, False, 0)
            policy.on_request_completed(request, 0)
        policy.begin_cycle(harness.now)
        assert_same_winner(policy, harness, fields)


@settings(max_examples=60, deadline=None)
@given(
    static=st.one_of(
        st.none(), st.sets(st.integers(0, NUM_THREADS - 1)).map(sorted)
    ),
    steps=st.lists(
        st.tuples(
            st.lists(st.integers(0, NUM_THREADS - 1), max_size=12),
            per_bank_fields,
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_staged(static, steps):
    policy = StagedPolicy(
        NUM_THREADS, streaming_threads=static, epoch_length=1,
        min_epoch_requests=2,
    )
    harness = bound(policy)
    for served, fields in steps:
        for thread in served:
            request = harness.controller.make_request(thread, 0, False, 0)
            policy.on_request_completed(request, 0)
        policy.begin_cycle(harness.now)
        assert_same_winner(policy, harness, fields)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1.0, 3.0),
    steps=st.lists(
        st.tuples(
            st.lists(st.integers(0, NUM_THREADS - 1), max_size=12),
            queued_masks,
            per_bank_fields,
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_mise_stfm(alpha, steps):
    policy = MiseStfmPolicy(NUM_THREADS, alpha=alpha, epoch_length=1)
    harness = bound(policy)
    assert_same_winner(policy, harness, steps[0][2])  # before any epoch
    for served, mask, fields in steps:
        for thread in served:
            request = harness.controller.make_request(thread, 0, False, 0)
            policy.on_request_completed(request, 0)
        set_queued(harness, mask)
        policy.begin_cycle(harness.now)  # ends an epoch: resample, decide
        assert_same_winner(policy, harness, fields)


# -- every decision of real runs ----------------------------------------------


@pytest.mark.parametrize("policy", ["fr-fcfs", "stfm", "bliss", "mise-stfm", "staged"])
def test_every_decision_of_a_run(policy, monkeypatch):
    integer_select = SchedulingPolicy.select
    decisions = [0]

    def checked_select(self, channel_index, per_bank, now):
        winner = integer_select(self, channel_index, per_bank, now)
        assert winner is reference_select(self, per_bank, now)
        decisions[0] += 1
        return winner

    monkeypatch.setattr(SchedulingPolicy, "select", checked_select)
    system_run = CmpSystem.run

    def run(system, sampler=None):
        assert system.controller.policy.class_of is not None
        return system_run(system, sampler)

    monkeypatch.setattr(CmpSystem, "run", run)
    simulate(f"kernel/{policy}/seed0")
    assert decisions[0] > 0


def test_arrival_limit_covers_the_default_max_cycles():
    config = SystemConfig()
    # The last tick starts before max_cycles; its requests arrive within
    # one DRAM cycle of it.
    assert config.max_cycles + config.timing.dram_cycle <= ARRIVAL_LIMIT
    with pytest.raises(ValueError):
        SystemConfig(max_cycles=ARRIVAL_LIMIT)
