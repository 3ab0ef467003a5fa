"""Tests for the STFM scheduling policy (Sections 3.2.1 and 3.3)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stfm import StfmPolicy
from repro.schedulers import make_policy
from tests.conftest import ControllerHarness


def make_harness(num_threads=2, **policy_kwargs):
    policy = StfmPolicy(num_threads, **policy_kwargs)
    harness = ControllerHarness(policy=policy, num_threads=num_threads)
    return harness, policy


class TestConstruction:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            StfmPolicy(2, alpha=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": math.nan},
            {"alpha": math.inf},
            {"gamma": math.nan},
            {"gamma": math.inf},
            {"gamma": 0.0},
            {"weights": [1.0, math.nan]},
            {"weights": [math.inf, 1.0]},
            {"interval_length": 0},
            {"interval_length": -4},
            {"interval_length": 4096.5},
            {"interference_basis": "literal"},
        ],
        ids=repr,
    )
    def test_rejects_non_finite_and_out_of_range(self, kwargs):
        # Rejected at construction, before any controller binds it.
        with pytest.raises(ValueError):
            StfmPolicy(2, **kwargs)
        with pytest.raises(ValueError):
            make_policy("stfm", 2, **kwargs)

    def test_system_software_updates_validated(self):
        policy = StfmPolicy(2)
        with pytest.raises(ValueError):
            policy.set_alpha(math.nan)
        with pytest.raises(ValueError):
            policy.set_thread_weight(0, math.nan)
        assert policy.alpha == pytest.approx(1.10)
        assert policy.registers.threads[0].weight == 1.0

    def test_needs_ready_sets_only_for_ready_basis(self):
        assert not StfmPolicy(2).needs_ready_sets
        assert StfmPolicy(2, interference_basis="ready").needs_ready_sets

    def test_defaults(self):
        policy = StfmPolicy(4)
        assert policy.alpha == pytest.approx(1.10)  # paper Section 6.3
        # The paper used gamma = 1/2 for its accounting; our
        # waiting-basis accounting calibrates at 1.0 (DESIGN.md).
        assert policy.gamma == pytest.approx(1.0)
        assert policy.registers.interval_length == 1 << 24


class TestModeSelection:
    def test_throughput_mode_without_contention(self):
        harness, policy = make_harness()
        harness.submit(0, bank=0, row=1)
        harness.tick()
        assert not policy.fairness_mode

    def test_throughput_mode_when_slowdowns_balanced(self):
        harness, policy = make_harness()
        stalls = {0: 1000, 1: 1000}
        policy.set_tshared_source(lambda t: stalls[t])
        harness.submit(0, bank=0, row=1)
        harness.submit(1, bank=1, row=1)
        harness.tick()
        assert policy.last_unfairness == pytest.approx(1.0)
        assert not policy.fairness_mode

    def test_fairness_mode_when_unfairness_exceeds_alpha(self):
        harness, policy = make_harness(alpha=1.1)
        stalls = {0: 1000, 1: 1000}
        policy.set_tshared_source(lambda t: stalls[t])
        policy.registers.add_interference(1, 500.0)  # thread 1 slowed 2x
        harness.submit(0, bank=0, row=1)
        harness.submit(1, bank=1, row=1)
        harness.tick()
        assert policy.fairness_mode
        assert policy.max_slowdown_thread == 1
        assert policy.last_unfairness == pytest.approx(2.0)

    def test_large_alpha_disables_fairness(self):
        """System software can disable hardware fairness (Section 3.3)."""
        harness, policy = make_harness(alpha=50.0)
        stalls = {0: 1000, 1: 1000}
        policy.set_tshared_source(lambda t: stalls[t])
        policy.registers.add_interference(1, 900.0)
        harness.submit(0, bank=0, row=1)
        harness.submit(1, bank=1, row=1)
        harness.tick()
        assert not policy.fairness_mode

    def test_only_threads_with_requests_considered(self):
        harness, policy = make_harness(num_threads=3)
        stalls = {0: 1000, 1: 1000, 2: 1000}
        policy.set_tshared_source(lambda t: stalls[t])
        policy.registers.add_interference(2, 900.0)  # slowed, but idle
        harness.submit(0, bank=0, row=1)
        harness.submit(1, bank=1, row=1)
        harness.tick()
        assert not policy.fairness_mode


def reference_decision(policy, counters, queued):
    """The decision as first written: per-thread method chain, then
    ``max``/``min`` over ``(slowdown, thread)`` tuples."""
    active = [t for t in range(policy.num_threads) if queued[t]]
    if len(active) < 2:
        return False, (active[0] if active else None), 1.0
    slowdowns = [
        (policy.registers.weighted_slowdown(t, counters[t]), t) for t in active
    ]
    s_max, t_max = max(slowdowns)
    s_min, _ = min(slowdowns)
    unfairness = s_max / max(s_min, 1e-9)
    return unfairness > policy.alpha, t_max, unfairness


thread_state = st.tuples(
    st.integers(0, 3),                                   # queued reads
    st.sampled_from([0, 400, 1000, 1600]),               # stall counter
    st.sampled_from([0, 400]),                           # Tshared offset
    st.sampled_from([0.0, 250.0, 500.0, 999.0, -300.0]),  # Tinterference
    st.sampled_from([0.0, 0.5, 1.0, 4.0]),               # weight
)


class TestDecision:
    @settings(max_examples=300, deadline=None)
    @given(
        threads=st.lists(thread_state, min_size=1, max_size=6),
        alpha=st.sampled_from([1.0, 1.1, 2.0]),
    )
    def test_one_pass_matches_reference(self, threads, alpha):
        """Same fairness mode, Tmax thread (ties to the larger thread
        id) and unfairness as the tuple formulation, bit for bit."""
        harness, policy = make_harness(num_threads=len(threads), alpha=alpha)
        queued = harness.controller.queues.queued_read_counts
        counters = []
        for t, (reads, counter, offset, interference, weight) in enumerate(
            threads
        ):
            queued[t] = reads
            counters.append(counter)
            registers = policy.registers.threads[t]
            registers.tshared_offset = offset
            registers.t_interference = interference
            registers.weight = weight
        expected = reference_decision(policy, counters, queued)
        policy.set_tshared_source(lambda t: counters[t])
        policy.begin_cycle(0)
        assert (
            policy.fairness_mode,
            policy.max_slowdown_thread,
            policy.last_unfairness,
        ) == expected

    def test_ties_go_to_the_larger_thread_id(self):
        harness, policy = make_harness(num_threads=3, alpha=1.1)
        policy.set_tshared_source(lambda t: 1000)
        for thread in (0, 2):  # equally slowed, both 2x
            policy.registers.add_interference(thread, 500.0)
        for thread in range(3):
            harness.submit(thread, bank=thread, row=1)
        harness.tick()
        assert policy.fairness_mode
        assert policy.max_slowdown_thread == 2


class TestFairnessRulePrioritization:
    def test_tmax_thread_serviced_first(self):
        """Under the fairness rule, the most slowed thread's younger
        row-conflict request beats another thread's older row hit."""
        harness, policy = make_harness(alpha=1.05)
        stalls = {0: 10_000, 1: 10_000}
        policy.set_tshared_source(lambda t: stalls[t])
        # Open row 1 in bank 0 for thread 0.
        harness.submit(0, bank=0, row=1, column=0)
        harness.run_until_done()
        harness.pending.clear()
        # Wait out tRAS so the victim's precharge is immediately ready
        # (STFM prioritizes Tmax's *ready* commands; it cannot conjure
        # readiness past timing constraints).
        harness.tick(harness.timing.ras // harness.timing.dram_cycle + 1)
        # Make thread 1 the most slowed-down thread.
        policy.registers.add_interference(1, 5_000.0)
        hit = harness.submit(0, bank=0, row=1, column=1)
        victim = harness.submit(1, bank=0, row=2)
        harness.run_until_done()
        assert victim.completed_at < hit.completed_at

    def test_frfcfs_rules_apply_in_throughput_mode(self):
        harness, policy = make_harness(alpha=10.0)
        harness.submit(0, bank=0, row=1, column=0)
        harness.run_until_done()
        harness.pending.clear()
        hit = harness.submit(0, bank=0, row=1, column=1)
        conflict = harness.submit(1, bank=0, row=2)
        harness.run_until_done()
        assert hit.completed_at < conflict.completed_at


class TestDiagnostics:
    def test_fairness_rule_fraction(self):
        harness, policy = make_harness()
        harness.submit(0, bank=0, row=1)
        harness.run_until_done()
        assert 0.0 <= policy.fairness_rule_fraction <= 1.0

    def test_slowdown_of_defaults_to_one(self):
        _, policy = make_harness()
        assert policy.slowdown_of(0) == 1.0


class TestEndToEndInterferenceTracking:
    def test_victim_accrues_interference(self):
        harness, policy = make_harness()
        # Thread 0's row hits are serviced first (throughput mode uses
        # FR-FCFS); thread 1 waits behind them and accrues interference,
        # while thread 0 — never delayed — accrues none.
        for i in range(6):
            harness.submit(0, bank=0, row=1, column=i)
            harness.submit(1, bank=0, row=2, column=i)
        harness.run_until_done()
        registers = policy.registers
        assert registers.threads[1].t_interference > 0
        assert (
            registers.threads[1].t_interference
            > registers.threads[0].t_interference
        )
