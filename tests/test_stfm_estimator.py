"""Tests for the TInterference update rules (Section 3.2.2).

The bus and bank rules name their receivers from the request queues'
counters, so each case builds the queue state through the harness:
open a bank's row first (as an ACTIVATE would), then submit requests.
"""

import pytest

from repro.core.estimator import InterferenceEstimator
from repro.core.registers import StfmRegisters
from repro.core.stfm import StfmPolicy
from repro.dram.bank import ROW_CLOSED, ROW_CONFLICT, ROW_HIT
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


def reference_own_thread(registers, controller, request):
    """Rule 2 as the helper chain first wrote it: outcomes classified
    through ``service_outcome``, latencies looked up per outcome, the
    charge and the row recorded through the register file's methods."""
    timing = controller.timing

    def outcome_latency(outcome):
        if outcome is ROW_HIT:
            return 0
        if outcome is ROW_CLOSED:
            return timing.rcd
        return timing.rp + timing.rcd

    thread = request.thread_id
    coords = request.coords
    global_bank = controller.queues.global_bank(coords.channel, coords.bank)
    alone_row = registers.last_row(thread, global_bank)
    if alone_row is None:
        alone = ROW_CLOSED
    elif alone_row == coords.row:
        alone = ROW_HIT
    else:
        alone = ROW_CONFLICT
    extra = outcome_latency(request.service_outcome()) - outcome_latency(alone)
    if extra:
        parallelism = max(1, controller.bank_access_parallelism(thread))
        registers.add_interference(thread, extra / parallelism)
    registers.record_row(thread, global_bank, coords.row)


class TestOwnThreadRuleMatchesReference:
    """The streamlined rule 2 against the helper chain, bit for bit."""

    @pytest.mark.parametrize("parallelism", [0, 1, 2, 3])
    @pytest.mark.parametrize("actual", ["hit", "closed", "conflict"])
    @pytest.mark.parametrize("alone_row", [None, 4, 9], ids=["none", "same", "other"])
    def test_charge_and_last_row(self, alone_row, actual, parallelism):
        results = []
        for streamlined in (True, False):
            harness = ControllerHarness(
                policy=StfmPolicy(2), num_threads=2, num_channels=2
            )
            policy = harness.controller.policy
            registers = policy.registers
            # A fraction already charged, so the addition rounds.
            registers.threads[1].t_interference = 0.1
            if alone_row is not None:
                registers.record_row(1, 8 + 3, alone_row)
            registers.record_row(1, 3, 7)  # same bank, other channel
            harness.controller._bank_access_parallelism[1] = parallelism
            request = harness.controller.make_request(
                1, harness.address(3, 4, channel=1), False, 0
            )
            request.got_activate = actual != "hit"
            request.got_precharge = actual == "conflict"
            candidate = CommandCandidate(CommandKind.READ, request, 3, 0)
            if streamlined:
                policy.estimator._update_own_thread(candidate)
            else:
                reference_own_thread(registers, harness.controller, request)
            thread = registers.threads[1]
            results.append((thread.t_interference.hex(), dict(thread.last_row)))
        assert results[0] == results[1]
        assert results[0][1] == {3: 7, 11: 4}


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
