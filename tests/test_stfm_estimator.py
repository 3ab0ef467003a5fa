"""Tests for the TInterference update rules (Section 3.2.2).

The bus and bank rules name their receivers from the request queues'
counters, so each case builds the queue state through the harness:
open a bank's row first (as an ACTIVATE would), then submit requests.
"""

import pytest

from repro.core.estimator import InterferenceEstimator
from repro.core.registers import StfmRegisters
from repro.core.stfm import StfmPolicy
from repro.dram.commands import CommandCandidate, CommandKind
from tests.conftest import ControllerHarness


def make_setup(num_threads: int = 3, gamma: float = 0.5):
    policy = StfmPolicy(num_threads, gamma=gamma)
    harness = ControllerHarness(policy=policy, num_threads=num_threads)
    estimator = policy.estimator
    return harness, policy.registers, estimator


def candidate_for(harness, thread, bank, row, kind, column=0, is_write=False):
    request = harness.controller.make_request(
        thread, harness.address(bank, row, column), is_write, harness.now
    )
    bank_obj = harness.controller.channels[0].banks[bank]
    return CommandCandidate(kind, request, bank, bank_obj.command_latency(kind))


def open_row(harness, bank, row):
    """Open ``row`` in ``bank`` before any request to it is submitted."""
    harness.controller.channels[0].banks[bank].open_row = row


class TestBankInterference:
    def test_waiting_thread_charged_amortized_latency(self):
        harness, registers, estimator = make_setup()
        # Thread 1 waits in bank 0 only: BankWaitingParallelism = 1.
        harness.submit(1, bank=0, row=5)
        harness.submit(0, bank=0, row=1)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.READ)
        estimator.on_command_issued(cand, {}, 0)
        # Latency(R) / (gamma * 1) = (cl + burst) / 0.5, plus the bus term
        # tBus because a column was issued and thread 1 waits on a column?
        # thread 1's request needs an activate, so no bus term applies.
        timing = harness.timing
        expected = (timing.cl + timing.burst) / 0.5
        assert registers.threads[1].t_interference == pytest.approx(expected)

    def test_issuer_not_charged(self):
        harness, registers, estimator = make_setup()
        harness.submit(0, bank=0, row=5)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.ACTIVATE)
        estimator.on_command_issued(cand, {}, 0)
        assert registers.threads[0].t_interference == 0.0

    def test_amortized_across_waiting_banks(self):
        harness, registers, estimator = make_setup()
        # Thread 1 waits in two banks: the charge halves.
        harness.submit(1, bank=0, row=5)
        harness.submit(1, bank=3, row=5)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.PRECHARGE)
        estimator.on_command_issued(cand, {}, 0)
        timing = harness.timing
        expected = timing.rp / (0.5 * 2)
        assert registers.threads[1].t_interference == pytest.approx(expected)

    def test_gamma_scaling(self):
        harness, registers, estimator = make_setup(gamma=1.0)
        harness.submit(1, bank=0, row=5)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.PRECHARGE)
        estimator.on_command_issued(cand, {}, 0)
        assert registers.threads[1].t_interference == pytest.approx(
            harness.timing.rp
        )

    def test_other_banks_not_charged(self):
        harness, registers, estimator = make_setup()
        harness.submit(1, bank=4, row=5)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.READ)
        estimator.on_command_issued(cand, {}, 0)
        assert registers.threads[1].t_interference == 0.0


class TestBusInterference:
    def test_tbus_charged_to_column_waiters(self):
        harness, registers, estimator = make_setup()
        # Threads 1 and 2 wait on row hits in other banks.
        open_row(harness, 1, 3)
        open_row(harness, 2, 4)
        harness.submit(1, bank=1, row=3)
        harness.submit(2, bank=2, row=4)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.READ)
        estimator.on_command_issued(cand, {}, 0)
        assert registers.threads[1].t_interference == pytest.approx(
            harness.timing.t_bus
        )
        assert registers.threads[2].t_interference == pytest.approx(
            harness.timing.t_bus
        )

    def test_reads_missing_the_open_row_not_charged_in_read_mode(self):
        harness, registers, estimator = make_setup()
        open_row(harness, 1, 3)
        harness.submit(1, bank=1, row=9)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.READ)
        estimator.on_command_issued(cand, {}, 0)
        assert registers.threads[1].t_interference == 0.0

    def test_write_drain_charges_every_queued_reader(self):
        """During a write drain every thread with a queued read on the
        channel stands in for a column waiter."""
        harness, registers, estimator = make_setup()
        harness.submit(1, bank=1, row=9)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.WRITE, is_write=True)
        estimator.on_command_issued(cand, {}, 0)
        assert registers.threads[1].t_interference == pytest.approx(
            harness.timing.t_bus
        )

    def test_row_commands_do_not_occupy_the_bus(self):
        harness, registers, estimator = make_setup()
        open_row(harness, 1, 3)
        harness.submit(1, bank=1, row=3)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.ACTIVATE)
        estimator.on_command_issued(cand, {}, 0)
        assert registers.threads[1].t_interference == 0.0


class TestOwnThreadExtraLatency:
    def test_conflict_that_would_have_hit_alone(self):
        """The paper's example: R2 would be a row hit alone but is a
        conflict in the shared system -> charge ExtraLatency = tRP+tRCD
        divided by BankAccessParallelism."""
        harness, registers, estimator = make_setup()
        registers.record_row(0, 0, 1)  # thread 0 last accessed row 1
        cand = candidate_for(harness, 0, 0, 1, CommandKind.READ)
        cand.request.got_precharge = True  # serviced as a conflict
        cand.request.got_activate = True
        estimator.on_command_issued(cand, {}, 0)
        timing = harness.timing
        assert registers.threads[0].t_interference == pytest.approx(
            timing.rp + timing.rcd
        )

    def test_negative_interference_for_lucky_hit(self):
        """A hit that would have been a conflict alone (footnote 10)."""
        harness, registers, estimator = make_setup()
        registers.record_row(0, 0, 9)  # alone it would conflict (row 9 open)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.READ)
        estimator.on_command_issued(cand, {}, 0)
        timing = harness.timing
        assert registers.threads[0].t_interference == pytest.approx(
            -(timing.rp + timing.rcd)
        )

    def test_first_access_compared_against_closed_row(self):
        harness, registers, estimator = make_setup()
        cand = candidate_for(harness, 0, 0, 1, CommandKind.READ)
        cand.request.got_activate = True  # serviced as row-closed
        estimator.on_command_issued(cand, {}, 0)
        # Alone it would also have been closed: no extra latency.
        assert registers.threads[0].t_interference == 0.0

    def test_amortized_by_bank_access_parallelism(self):
        harness, registers, estimator = make_setup()
        # Two requests of thread 0 in service -> parallelism 2.
        harness.controller._bank_access_parallelism[0] = 2
        registers.record_row(0, 0, 1)
        cand = candidate_for(harness, 0, 0, 1, CommandKind.READ)
        cand.request.got_precharge = True
        estimator.on_command_issued(cand, {}, 0)
        timing = harness.timing
        assert registers.threads[0].t_interference == pytest.approx(
            (timing.rp + timing.rcd) / 2
        )

    def test_last_row_updated_after_service(self):
        harness, registers, estimator = make_setup()
        cand = candidate_for(harness, 0, 2, 7, CommandKind.READ)
        estimator.on_command_issued(cand, {}, 0)
        assert registers.last_row(0, 2) == 7


class TestValidation:
    def test_gamma_must_be_positive(self):
        harness, registers, _ = make_setup()
        with pytest.raises(ValueError):
            InterferenceEstimator(registers, harness.controller, gamma=0.0)
        for gamma in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                InterferenceEstimator(
                    registers, harness.controller, gamma=gamma
                )
