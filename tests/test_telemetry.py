"""Tests for the telemetry sampler and the STFM estimate validation."""

import pytest

from repro.schedulers.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.system import CmpSystem
from repro.sim.telemetry import TelemetrySampler
from repro.workloads.spec2006 import SPEC2006
from repro.workloads.synthetic import generate_trace


def build_system(policy_name: str, budget: int = 5_000) -> CmpSystem:
    config = SystemConfig(num_cores=2)
    mapper = config.mapper()
    names = ["mcf", "GemsFDTD"]
    traces = [
        generate_trace(SPEC2006[n], mapper, budget, partition=i, num_partitions=2)
        for i, n in enumerate(names)
    ]
    policy = make_policy(policy_name, num_threads=2)
    return CmpSystem(config, traces, policy, budget,
                     mlp_limits=[SPEC2006[n].mlp for n in names])


class TestSampler:
    def test_period_validation(self):
        system = build_system("fr-fcfs")
        with pytest.raises(ValueError):
            TelemetrySampler(system, period=1)

    def test_samples_recorded_at_period(self):
        system = build_system("fr-fcfs")
        telemetry = TelemetrySampler(system, period=2_000).run()
        assert len(telemetry.samples) >= 3
        cycles = telemetry.cycles
        assert cycles == sorted(cycles)

    def test_run_reaches_budgets(self):
        system = build_system("fr-fcfs")
        TelemetrySampler(system, period=2_000).run()
        assert all(core.snapshot is not None for core in system.cores)

    def test_monotonic_counters(self):
        system = build_system("stfm")
        telemetry = TelemetrySampler(system, period=1_000).run()
        for thread in range(2):
            instructions = telemetry.series("instructions", thread)
            stalls = telemetry.series("stall_cycles", thread)
            assert instructions == sorted(instructions)
            assert stalls == sorted(stalls)

    def test_mise_policy_has_estimates(self):
        system = build_system("mise-stfm")
        telemetry = TelemetrySampler(system, period=2_000).run()
        assert all(
            s.estimated_slowdowns is not None for s in telemetry.samples
        )
        assert all(s.fairness_mode is not None for s in telemetry.samples)

    def test_non_stfm_policy_has_no_estimates(self):
        system = build_system("fcfs")
        telemetry = TelemetrySampler(system, period=2_000).run()
        assert all(s.estimated_slowdowns is None for s in telemetry.samples)


class TestEstimateValidation:
    def test_stfm_estimate_tracks_measured_slowdown(self):
        """The paper's central mechanism: the hardware slowdown estimate
        should correlate with the measured (ground-truth) slowdown."""
        budget = 8_000
        runner = ExperimentRunner(
            SystemConfig(num_cores=2), instruction_budget=budget
        )
        system = build_system("stfm", budget)
        telemetry = TelemetrySampler(system, period=2_000).run()
        final = telemetry.samples[-1]
        assert final.estimated_slowdowns is not None
        names = ["mcf", "GemsFDTD"]
        for i, name in enumerate(names):
            alone = runner.alone_snapshot(name, i, 2)
            measured = system.cores[i].snapshot.mcpi / alone.mcpi
            estimated = final.estimated_slowdowns[i]
            # Generous envelope: the estimate should at least be in the
            # right regime (both indicate real contention, within ~2.5x).
            assert estimated > 1.0
            assert estimated / measured < 2.5
            assert measured / estimated < 2.5
