"""End-to-end system tests: the paper's headline behaviours at small scale."""

import pytest

from repro.schedulers.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.system import CmpSystem
from repro.workloads.spec2006 import SPEC2006
from repro.workloads.synthetic import generate_trace


@pytest.fixture(scope="module")
def runner_2core():
    return ExperimentRunner(
        SystemConfig(num_cores=2), instruction_budget=8_000, seed=0
    )


@pytest.fixture(scope="module")
def runner_4core():
    return ExperimentRunner(
        SystemConfig(num_cores=4), instruction_budget=8_000, seed=0
    )


class TestCmpSystem:
    def test_single_core_completes(self):
        config = SystemConfig(num_cores=1)
        trace = generate_trace(SPEC2006["mcf"], config.mapper(), 3_000)
        system = CmpSystem(config, [trace], make_policy("fr-fcfs", 1), 3_000)
        snapshots = system.run()
        assert snapshots[0].instructions >= 3_000
        assert snapshots[0].cycles > 0
        assert snapshots[0].memory_stall_cycles > 0

    def test_all_cores_reach_budget(self):
        config = SystemConfig(num_cores=2)
        mapper = config.mapper()
        traces = [
            generate_trace(SPEC2006[name], mapper, 3_000, partition=i,
                           num_partitions=2)
            for i, name in enumerate(["mcf", "libquantum"])
        ]
        system = CmpSystem(config, traces, make_policy("fr-fcfs", 2), 3_000)
        for snapshot in system.run():
            assert snapshot.instructions >= 3_000

    def test_budget_list_and_validation(self):
        config = SystemConfig(num_cores=2)
        mapper = config.mapper()
        traces = [
            generate_trace(SPEC2006["mcf"], mapper, 2_000, partition=i,
                           num_partitions=2)
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            CmpSystem(config, traces, make_policy("fcfs", 2), [1_000])
        with pytest.raises(ValueError):
            CmpSystem(config, traces, make_policy("fcfs", 2), 1_000,
                      mlp_limits=[1])

    def test_more_traces_than_cores_rejected(self):
        config = SystemConfig(num_cores=1)
        mapper = config.mapper()
        traces = [
            generate_trace(SPEC2006["mcf"], mapper, 1_000, partition=i,
                           num_partitions=2)
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            CmpSystem(config, traces, make_policy("fcfs", 2), 1_000)


class TestSlowdownSanity:
    def test_alone_run_is_baseline(self, runner_2core):
        """A thread running truly alone has slowdown ~1 by construction."""
        result_alone = runner_2core.alone_snapshot("mcf", 0, 2)
        assert result_alone.mcpi > 0

    def test_shared_runs_slow_threads_down(self, runner_2core):
        result = runner_2core.run_workload(["mcf", "libquantum"], "fr-fcfs")
        for thread in result.threads:
            assert thread.slowdown > 1.0

    def test_interference_is_mutual_but_asymmetric(self, runner_2core):
        result = runner_2core.run_workload(["mcf", "GemsFDTD"], "fr-fcfs")
        slowdowns = {t.name: t.slowdown for t in result.threads}
        assert all(s > 1.0 for s in slowdowns.values())


class TestHeadlineResult:
    """The paper's core claim, at reduced scale: STFM reduces unfairness
    versus FR-FCFS without sacrificing (much) throughput."""

    def test_stfm_fairer_than_frfcfs_on_asymmetric_pair(self, runner_2core):
        frfcfs = runner_2core.run_workload(["mcf", "dealII"], "fr-fcfs")
        stfm = runner_2core.run_workload(["mcf", "dealII"], "stfm")
        assert stfm.unfairness < frfcfs.unfairness

    def test_stfm_fairest_on_intensive_4core_mix(self, runner_4core):
        workload = ["mcf", "libquantum", "GemsFDTD", "astar"]
        results = runner_4core.run_policies(
            workload, ["fr-fcfs", "nfq", "stfm"]
        )
        assert results["stfm"].unfairness < results["fr-fcfs"].unfairness
        assert results["stfm"].unfairness < results["nfq"].unfairness

    def test_stfm_throughput_competitive(self, runner_4core):
        workload = ["mcf", "libquantum", "GemsFDTD", "astar"]
        frfcfs = runner_4core.run_workload(workload, "fr-fcfs")
        stfm = runner_4core.run_workload(workload, "stfm")
        assert stfm.weighted_speedup > 0.85 * frfcfs.weighted_speedup

    def test_frfcfs_favors_row_buffer_locality(self, runner_4core):
        """libquantum (98.4% RB hits, streaming) is the least slowed
        thread under FR-FCFS (Figures 1 and 6)."""
        workload = ["mcf", "libquantum", "GemsFDTD", "astar"]
        result = runner_4core.run_workload(workload, "fr-fcfs")
        slowdowns = {t.name: t.slowdown for t in result.threads}
        assert slowdowns["libquantum"] == min(slowdowns.values())


class TestThreadWeights:
    def test_weighted_thread_prioritized(self, runner_4core):
        workload = ["libquantum", "cactusADM", "astar", "omnetpp"]
        equal = runner_4core.run_workload(workload, "stfm")
        weighted = runner_4core.run_workload(
            workload, "stfm", {"weights": [1.0, 16.0, 1.0, 1.0]}
        )
        name = "cactusADM"
        equal_slowdown = next(t for t in equal.threads if t.name == name)
        heavy_slowdown = next(t for t in weighted.threads if t.name == name)
        assert heavy_slowdown.slowdown < equal_slowdown.slowdown


class TestRunnerMechanics:
    def test_alone_cache_hit(self):
        runner = ExperimentRunner(
            SystemConfig(num_cores=2), instruction_budget=8_000, seed=0
        )
        first = runner.alone_snapshot("hmmer", 0, 2)
        assert runner.report.jobs_run == 1
        second = runner.alone_snapshot("hmmer", 0, 2)
        assert runner.report.jobs_run == 1
        assert runner.report.hits_memory == 1
        assert second == first

    def test_traces_shared_between_alone_and_shared(self, runner_2core):
        trace = runner_2core.trace_for("hmmer", 0, 2)
        assert runner_2core.trace_for("hmmer", 0, 2) is trace

    def test_budget_extension_for_light_benchmarks(self, runner_2core):
        assert runner_2core.budget_for("povray") > runner_2core.budget_for("mcf")
        assert runner_2core.budget_for("mcf") == 8_000

    def test_workload_validation(self, runner_2core):
        with pytest.raises(ValueError):
            runner_2core.run_workload([])
        with pytest.raises(ValueError):
            runner_2core.run_workload(["mcf", "mcf", "mcf"])

    def test_extras_present(self, runner_2core):
        result = runner_2core.run_workload(["mcf", "hmmer"], "stfm")
        assert "cycles" in result.extras
        assert 0.0 <= result.extras["fairness_rule_fraction"] <= 1.0
