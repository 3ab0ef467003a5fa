"""Unit tests for the extension-scheduler zoo (BLISS, MISE-STFM, STAGED)
and the heterogeneous streaming-agent workloads."""

from __future__ import annotations

import pytest

from repro.core.mise import MiseStfmPolicy, ServiceRateEstimator
from repro.schedulers import BlissPolicy, StagedPolicy, make_policy
from repro.schedulers.registry import (
    EXTENSION_ORDER,
    PAPER_ORDER,
    available_policies,
)
from repro.workloads import (
    STREAMING_AGENTS,
    benchmark,
    heterogeneous_workloads,
    is_streaming_agent,
)


class _Request:
    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id


class _Candidate:
    def __init__(self, thread_id: int, is_column: bool, arrival: int) -> None:
        self.thread_id = thread_id
        self.is_column = is_column
        self.arrival = arrival


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_extensions_registered(self):
        names = available_policies(include_extensions=True)
        assert names == PAPER_ORDER + EXTENSION_ORDER
        for name in EXTENSION_ORDER:
            policy = make_policy(name, num_threads=4)
            # No zoo policy reads the issue-time scan.
            assert policy.needs_scan is False

    def test_paper_order_excludes_extensions(self):
        assert available_policies() == PAPER_ORDER

    def test_unknown_policy_lists_everything(self):
        with pytest.raises(ValueError, match="mise-stfm"):
            make_policy("bogus", num_threads=2)


# -- BLISS --------------------------------------------------------------------


class TestBliss:
    def test_streak_blacklists_past_threshold(self):
        policy = BlissPolicy(num_threads=2, threshold=4)
        for _ in range(4):
            policy.on_request_completed(_Request(0), now=0)
        assert policy.blacklisted_threads == []
        policy.on_request_completed(_Request(0), now=0)  # 5th consecutive
        assert policy.blacklisted_threads == [0]
        assert policy.blacklist_events == 1

    def test_streak_resets_on_interleaving(self):
        policy = BlissPolicy(num_threads=2, threshold=4)
        for _ in range(4):
            policy.on_request_completed(_Request(0), now=0)
            policy.on_request_completed(_Request(1), now=0)
        assert policy.blacklisted_threads == []

    def test_periodic_clearing(self):
        policy = BlissPolicy(num_threads=2, threshold=1, clearing_interval=10)
        policy.on_request_completed(_Request(0), now=0)
        policy.on_request_completed(_Request(0), now=0)
        assert policy.blacklisted_threads == [0]
        for now in range(10):
            policy.begin_cycle(now)
        assert policy.blacklisted_threads == []
        assert policy.clears == 1

    def test_blacklisted_thread_deprioritized(self):
        policy = BlissPolicy(num_threads=2, threshold=1)
        policy.on_request_completed(_Request(0), now=0)
        policy.on_request_completed(_Request(0), now=0)
        hot = _Candidate(0, is_column=True, arrival=0)
        cold = _Candidate(1, is_column=False, arrival=5)
        assert policy.priority_key(cold, 0) > policy.priority_key(hot, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlissPolicy(2, threshold=0)
        with pytest.raises(ValueError):
            BlissPolicy(2, clearing_interval=0)


# -- MISE ---------------------------------------------------------------------


class TestServiceRateEstimator:
    def test_rates_split_by_sampled_thread(self):
        estimator = ServiceRateEstimator(num_threads=2)
        assert estimator.sampled_thread == 0
        # Epoch 1: thread 0 sampled; both threads complete requests.
        for _ in range(8):
            estimator.on_request_completed(0)
        for _ in range(2):
            estimator.on_request_completed(1)
        estimator.end_epoch()
        # Epoch 2: thread 1 sampled.
        for _ in range(2):
            estimator.on_request_completed(0)
        for _ in range(8):
            estimator.on_request_completed(1)
        estimator.end_epoch()
        assert estimator.alone_rate(0) == 8.0
        assert estimator.shared_rate(0) == 2.0
        assert estimator.alone_rate(1) == 8.0
        assert estimator.shared_rate(1) == 2.0
        assert estimator.slowdown(0) == pytest.approx(4.0)
        assert estimator.epochs_completed == 2

    def test_slowdown_defaults_and_floors(self):
        estimator = ServiceRateEstimator(num_threads=2)
        # No measurements at all: slowdown is 1 by convention.
        assert estimator.slowdown(0) == 1.0
        # Shared rate above alone rate floors at 1 (no negative slowdown).
        estimator._alone_served[0] = 2
        estimator._alone_epochs[0] = 1
        estimator._shared_served[0] = 8
        estimator._shared_epochs[0] = 1
        assert estimator.slowdown(0) == 1.0

    def test_slowdown_saturates_at_cap(self):
        from repro.core.registers import SLOWDOWN_CAP

        estimator = ServiceRateEstimator(num_threads=1)
        estimator._alone_served[0] = 1000
        estimator._alone_epochs[0] = 1
        estimator._shared_served[0] = 0
        estimator._shared_epochs[0] = 1
        assert estimator.slowdown(0) == SLOWDOWN_CAP


class TestMiseStfm:
    def test_sampled_thread_gets_top_priority(self):
        policy = MiseStfmPolicy(num_threads=2)
        assert policy.estimator.sampled_thread == 0
        sampled = _Candidate(0, is_column=False, arrival=9)
        other = _Candidate(1, is_column=True, arrival=0)
        assert policy.priority_key(sampled, 0) > policy.priority_key(other, 0)

    def test_validation_mirrors_stfm(self):
        with pytest.raises(ValueError):
            MiseStfmPolicy(2, alpha=0.5)
        with pytest.raises(ValueError):
            MiseStfmPolicy(2, epoch_length=0)
        with pytest.raises(ValueError):
            MiseStfmPolicy(2, weights=[1.0])
        with pytest.raises(ValueError):
            MiseStfmPolicy(2, weights=[1.0, -1.0])
        policy = MiseStfmPolicy(2)
        with pytest.raises(ValueError):
            policy.set_alpha(0.9)
        with pytest.raises(ValueError):
            policy.set_thread_weight(0, -1.0)


# -- STAGED -------------------------------------------------------------------


class TestStaged:
    def test_static_assignment(self):
        policy = StagedPolicy(num_threads=3, streaming_threads=[2])
        assert policy.streaming_classified == [2]
        gpu = _Candidate(2, is_column=True, arrival=0)
        cpu = _Candidate(0, is_column=False, arrival=9)
        assert policy.priority_key(cpu, 0) > policy.priority_key(gpu, 0)
        # Static mode never reclassifies.
        for now in range(5000):
            policy.begin_cycle(now)
        assert policy.streaming_classified == [2]

    def test_online_classification_flags_the_hog(self):
        policy = StagedPolicy(
            num_threads=4, epoch_length=10, min_epoch_requests=32
        )
        for _ in range(60):
            policy.on_request_completed(_Request(0), now=0)
        for thread in (1, 2, 3):
            for _ in range(4):
                policy.on_request_completed(_Request(thread), now=0)
        for now in range(10):
            policy.begin_cycle(now)
        assert policy.streaming_classified == [0]
        assert policy.reclassifications == 1
        # A quiet epoch clears the classification.
        for now in range(10):
            policy.begin_cycle(now)
        assert policy.streaming_classified == []

    def test_quiet_epoch_below_min_requests_classifies_nobody(self):
        policy = StagedPolicy(
            num_threads=2, epoch_length=10, min_epoch_requests=32
        )
        for _ in range(20):  # below min_epoch_requests
            policy.on_request_completed(_Request(0), now=0)
        for now in range(10):
            policy.begin_cycle(now)
        assert policy.streaming_classified == []

    def test_validation(self):
        with pytest.raises(ValueError):
            StagedPolicy(2, epoch_length=0)
        with pytest.raises(ValueError):
            StagedPolicy(2, spill_factor=1.0)


# -- streaming agents ---------------------------------------------------------


class TestStreamingAgents:
    def test_registry_and_lookup(self):
        assert set(STREAMING_AGENTS) == {
            "gpu-stream",
            "gpu-texture",
            "gpu-compute",
        }
        for name, spec in STREAMING_AGENTS.items():
            assert benchmark(name) is spec
            assert spec.itype == "GPU"
            assert is_streaming_agent(spec)
            assert is_streaming_agent(name)
        assert not is_streaming_agent("mcf")
        assert not is_streaming_agent(benchmark("mcf"))

    def test_agents_are_memory_intensive_and_latency_tolerant(self):
        cpu_mlp = max(benchmark(n).mlp for n in ("mcf", "libquantum"))
        for spec in STREAMING_AGENTS.values():
            assert spec.mpki >= 80.0
            assert spec.mlp >= 12  # latency tolerance via MLP
        # The pure graphics stream out-parallelizes every CPU benchmark.
        assert STREAMING_AGENTS["gpu-stream"].mlp > cpu_mlp

    def test_heterogeneous_workloads_shape(self):
        mixes = heterogeneous_workloads(4, 6, seed=0)
        assert len(mixes) == 6
        for mix in mixes:
            assert len(mix) == 4
            assert is_streaming_agent(mix[0])
            assert all(not is_streaming_agent(name) for name in mix[1:])
        # Deterministic in (num_cores, count, seed).
        assert mixes == heterogeneous_workloads(4, 6, seed=0)
        assert mixes != heterogeneous_workloads(4, 6, seed=1)

    def test_heterogeneous_needs_two_cores(self):
        with pytest.raises(ValueError):
            heterogeneous_workloads(1, 2)
