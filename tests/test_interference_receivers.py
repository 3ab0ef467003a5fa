"""STFM's interference receivers from counters, against queue contents.

On the default waiting basis the estimator names the threads a command
delays from counters the request queues keep (``RequestQueues.waiting``
per bank; per channel ``thread_reads`` and ``row_hit_reads``), fed by
the controller at enqueue, column issue, ACTIVATE, PRECHARGE and
refresh.  The reference here recomputes the receivers from the queue
contents and the open rows, before the command issues:

* bank rule: threads with a read queued for the issued bank;
* bus rule, read mode: threads with a queued read on the channel that
  hits its bank's open row;
* bus rule, write drain: threads with any queued read on the channel.

The issuer is never a receiver.

The same wrapper checks the two readers of the candidates the issued
command was chosen from (the ``per_bank`` dict ``_issue`` receives):

* STFM on the literal ready basis charges, in read mode, the threads
  with a candidate in the issued bank and, for a column command, those
  with a channel-ready column candidate; in a write drain, queued reads
  stand in for ready ones, so it charges the queued receivers above;
* FR-FCFS+Cap counts a column read as a bypass when the issued bank's
  oldest request still needing a row access (one not hitting the open
  row), taken before the issue, arrived earlier.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimator import InterferenceEstimator
from repro.schedulers.frfcfs_cap import FrFcfsCapPolicy
from repro.sim.system import CmpSystem
from tests.conftest import ControllerHarness
from tests.test_pinned_results import CASES, simulate

NUM_BANKS = 4


def reference_receivers(controller, channel_index: int, bank: int) -> dict:
    """Receivers recomputed from the queue contents and open rows."""
    queues = controller.queues.channels[channel_index]
    banks = controller.channels[channel_index].banks
    reads = [r for queue in queues.bank_queues for r in queue]
    return {
        "bank": {r.thread_id for r in queues.bank_queues[bank]},
        "bus_read_mode": {
            r.thread_id for r in reads if banks[r.bank].open_row == r.row
        },
        "bus_drain": {r.thread_id for r in reads},
    }


def ready_receivers(per_bank, bank: int) -> dict:
    """Ready-basis receivers from the pre-issue candidates (read mode)."""
    return {
        "bank": {c.thread_id for c in per_bank[bank]},
        "bus": {
            c.thread_id
            for candidates in per_bank.values()
            for c in candidates
            if c.is_column and c.channel_ready
        },
    }


def oldest_row_access(controller, channel_index: int, bank: int):
    """Arrival of the bank's oldest queued read that misses the open
    row, or None."""
    open_row = controller.channels[channel_index].banks[bank].open_row
    queue = controller.queues.channels[channel_index].bank_queues[bank]
    return min((r.arrival for r in queue if r.row != open_row), default=None)


def counter_receivers(controller, channel_index: int, bank: int) -> dict:
    """Receivers as the estimator reads them from the counters."""
    queues = controller.queues
    channel = queues.channels[channel_index]
    gbank = queues.global_bank(channel_index, bank)
    return {
        "bank": {t for t, w in enumerate(queues.waiting) if w[gbank]},
        "bus_read_mode": {t for t, n in enumerate(channel.row_hit_reads) if n},
        "bus_drain": {t for t, n in enumerate(channel.thread_reads) if n},
    }


def assert_counts_match_queues(controller) -> None:
    """Every counter equals a recount of the queues (not only > 0)."""
    queues = controller.queues
    for index, channel in enumerate(queues.channels):
        banks = controller.channels[index].banks
        hits = [0] * queues.num_threads
        reads = [0] * queues.num_threads
        for bank, queue in enumerate(channel.bank_queues):
            gbank = queues.global_bank(index, bank)
            for thread in range(queues.num_threads):
                assert queues.waiting[thread][gbank] == sum(
                    1 for r in queue if r.thread_id == thread
                )
            for request in queue:
                reads[request.thread_id] += 1
                if banks[bank].open_row == request.row:
                    hits[request.thread_id] += 1
        assert channel.thread_reads == reads
        assert channel.row_hit_reads == hits


# -- random queue states ------------------------------------------------------

bank_states = st.lists(
    st.one_of(st.none(), st.integers(0, 3)),  # open row
    min_size=NUM_BANKS,
    max_size=NUM_BANKS,
)

requests = st.lists(
    st.tuples(
        st.integers(0, 3),              # thread
        st.integers(0, NUM_BANKS - 1),  # bank
        st.integers(0, 3),              # row
        st.booleans(),                  # is write
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(open_rows=bank_states, stream=requests)
def test_counters_name_the_queued_receivers(open_rows, stream):
    harness = ControllerHarness(
        num_threads=4, num_banks=NUM_BANKS, write_capacity=64
    )
    controller = harness.controller
    # Open rows first, as ACTIVATEs would: submit counts the hits.
    for bank, row in zip(controller.channels[0].banks, open_rows):
        bank.open_row = row
    for thread, bank, row, is_write in stream:
        harness.submit(thread, bank=bank, row=row, is_write=is_write)
    assert_counts_match_queues(controller)
    for bank in range(NUM_BANKS):
        assert counter_receivers(controller, 0, bank) == reference_receivers(
            controller, 0, bank
        )


# -- every issued command of the pinned configurations ---------------------


def install_checks(controller) -> list[int]:
    """Check the receivers at every issued command and the counters at
    every tick; returns a one-item list counting the checked issues."""
    issue = controller._issue
    tick = controller.tick
    policy = controller.policy
    # STFM charges the receivers; check the charges.
    estimator = getattr(policy, "estimator", None)
    charges = isinstance(estimator, InterferenceEstimator)
    capped = isinstance(policy, FrFcfsCapPolicy)
    checked = [0]

    def checked_issue(channel, candidate, per_bank, now):
        request = candidate.request
        issuer = candidate.thread_id
        bank_key = (channel.index, candidate.bank_index)
        reference = reference_receivers(
            controller, channel.index, candidate.bank_index
        )
        ready = (
            ready_receivers(per_bank, candidate.bank_index)
            if charges and estimator.basis == "ready" and not request.is_write
            else None
        )
        before = (
            [t.t_interference for t in policy.registers.threads]
            if charges
            else None
        )
        if capped:
            bypasses = policy._bypass_counts.get(bank_key, 0)
            oldest = oldest_row_access(
                controller, channel.index, candidate.bank_index
            )
        issue(channel, candidate, per_bank, now)
        counters = counter_receivers(
            controller, channel.index, candidate.bank_index
        )
        # The bus rule applies to column commands only, and in the mode
        # the controller is in (it drains writes when a write issues).
        bus_rule = "bus_drain" if request.is_write else "bus_read_mode"
        rules = ("bank", bus_rule) if candidate.is_column else ("bank",)
        for rule in rules:
            assert counters[rule] - {issuer} == reference[rule] - {issuer}, (
                rule, candidate,
            )
        checked[0] += 1
        if capped:
            if not candidate.is_column:
                bypasses = 0
            elif not request.is_write and oldest is not None:
                bypasses += oldest < candidate.arrival
            assert policy._bypass_counts.get(bank_key, 0) == bypasses, candidate
        if not charges:
            return
        bank = reference["bank"]
        bus = reference[bus_rule]
        if ready is not None:
            bank = ready["bank"]
            bus = ready["bus"]
        waiting_banks = controller.queues.waiting_banks
        for thread, registers in enumerate(policy.registers.threads):
            if thread == issuer:
                continue
            expected = before[thread]
            if thread in bank:
                expected += candidate.latency / (
                    estimator.gamma * max(1, waiting_banks[thread])
                )
            if candidate.is_column and thread in bus:
                expected += controller.timing.t_bus
            assert registers.t_interference == expected, (thread, candidate)

    def checked_tick(now):
        tick(now)
        assert_counts_match_queues(controller)

    controller._issue = checked_issue
    controller.tick = checked_tick
    return checked


@pytest.mark.parametrize(
    "case", sorted(c for c in CASES if not c.endswith("/seed1"))
)
def test_receivers_at_every_issue(case, monkeypatch):
    run = CmpSystem.run
    checked: list[list[int]] = []

    def checked_run(system, sampler=None):
        checked.append(install_checks(system.controller))
        return run(system, sampler)

    monkeypatch.setattr(CmpSystem, "run", checked_run)
    simulate(case)
    assert checked and checked[0][0] > 0
