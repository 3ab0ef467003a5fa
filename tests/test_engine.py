"""Tests for the parallel experiment engine (repro.engine).

Covers the job graph (dedup of shared alone-baseline jobs), the
content-addressed cache keys, the on-disk result store (hit/miss across
two runner processes), the executor's crash-retry and timeout paths, and
the acceptance criterion: a policy sweep produces bit-identical metrics
with ``jobs=1`` and ``jobs=4``, and a warm-cache rerun performs zero new
simulations.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import ClassVar

import pytest

from repro.engine import (
    AloneJob,
    EngineOptions,
    ExperimentPlan,
    JobExecutor,
    JobFailedError,
    ResultStore,
    SharedJob,
    engine_options,
    register_job_kind,
)
from repro.engine.jobs import build_system, freeze_kwargs, resolve_spec
from repro.experiments.base import Scale
from repro.experiments.common import ALL_POLICIES, make_runner, policy_sweep
from repro.metrics.fairness import memory_slowdown
from repro.schedulers.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner

CONFIG = SystemConfig(num_cores=2, max_cycles=20_000_000)

SWEEP_WORKLOADS = [
    ["mcf", "hmmer"],
    ["libquantum", "omnetpp"],
    ["mcf", "libquantum"],
    ["GemsFDTD", "astar"],
]


def _alone_job(**overrides) -> AloneJob:
    base = dict(
        spec=None, partition=0, num_partitions=2, budget=2_000, seed=0,
        config=CONFIG,
    )
    base.update(overrides)
    if base["spec"] is None:
        from repro.workloads.spec2006 import benchmark

        base["spec"] = benchmark("mcf")
    return AloneJob(**base)


class TestCacheKeys:
    def test_alone_key_covers_every_input(self):
        base = _alone_job()
        assert base.cache_key() == _alone_job().cache_key()
        for variant in (
            _alone_job(partition=1),
            _alone_job(num_partitions=4),
            _alone_job(budget=4_000),
            _alone_job(seed=7),
            _alone_job(config=replace(CONFIG, num_banks=4)),
            _alone_job(config=replace(CONFIG, max_cycles=10_000_000)),
        ):
            assert variant.cache_key() != base.cache_key()

    def test_alone_key_ignores_core_count(self):
        # Baselines depend on the memory system only: a 2-core and a
        # 4-core config with identical memory share alone baselines.
        two = _alone_job(config=SystemConfig(num_cores=2, num_channels=1))
        four = _alone_job(config=SystemConfig(num_cores=4, num_channels=1))
        assert two.cache_key() == four.cache_key()

    def test_shared_key_covers_policy_and_kwargs(self):
        from repro.workloads.spec2006 import benchmark

        def shared(policy="stfm", kwargs=None, seed=0):
            return SharedJob(
                specs=(benchmark("mcf"), benchmark("hmmer")),
                policy=policy,
                policy_kwargs=freeze_kwargs(kwargs),
                budgets=(2_000, 2_000),
                seed=seed,
                config=CONFIG,
            )

        base = shared()
        assert base.cache_key() == shared().cache_key()
        assert shared(policy="nfq").cache_key() != base.cache_key()
        assert shared(seed=3).cache_key() != base.cache_key()
        assert (
            shared(kwargs={"weights": [1.0, 4.0]}).cache_key()
            != base.cache_key()
        )

    def test_kwargs_order_is_canonical(self):
        assert freeze_kwargs({"a": 1, "b": [2, 3]}) == freeze_kwargs(
            {"b": [2, 3], "a": 1}
        )


class TestPlanDedup:
    def test_alone_baselines_shared_across_policies_and_workloads(self):
        plan = ExperimentPlan(CONFIG, instruction_budget=2_000)
        for workload in (["mcf", "hmmer"], ["mcf", "libquantum"]):
            for policy in ("fr-fcfs", "stfm"):
                plan.add(workload, policy)
        # 4 shared jobs; alone jobs dedup to mcf@0, hmmer@1, libquantum@1.
        assert len(plan.requests) == 4
        assert len(plan) == 7
        # 4 requests x 3 jobs = 12 admissions, 7 unique.
        assert plan.dedup_hits == 5

    def test_identical_requests_collapse(self):
        plan = ExperimentPlan(CONFIG, instruction_budget=2_000)
        plan.add(["mcf", "hmmer"], "stfm")
        plan.add(["mcf", "hmmer"], "stfm")
        assert len(plan.requests) == 2
        assert len(plan) == 3

    def test_validation_matches_runner(self):
        plan = ExperimentPlan(CONFIG)
        with pytest.raises(ValueError, match="empty"):
            plan.add([])
        with pytest.raises(ValueError, match="benchmarks for"):
            plan.add(["mcf", "mcf", "mcf"])


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        job = _alone_job()
        key = job.cache_key()
        assert store.get(key) is None
        store.put(key, {"instructions": 10}, describe=job.describe())
        assert store.get(key) == {"instructions": 10}
        assert key in store
        assert len(store) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = _alone_job().cache_key()
        store.put(key, {"x": 1})
        store._path(key).write_text("not json{")
        assert store.get(key) is None


# -- executor crash / timeout paths, via a scripted job kind ----------------


@dataclass(frozen=True)
class ScriptedJob:
    """A job whose behaviour is scripted by its fields (tests only)."""

    name: str
    crash_marker: str = ""  # os._exit until this file exists
    always_crash: bool = False
    sleep: float = 0.0
    raise_error: bool = False

    kind: ClassVar[str] = "scripted-test"

    def cache_key(self) -> str:
        return f"scripted-{self.name}"

    def describe(self) -> str:
        return f"scripted {self.name}"


def _run_scripted(job: ScriptedJob) -> dict:
    if job.raise_error:
        raise ValueError("scripted failure")
    if job.always_crash:
        os._exit(23)
    if job.sleep:
        time.sleep(job.sleep)
    if job.crash_marker and not os.path.exists(job.crash_marker):
        with open(job.crash_marker, "w"):
            pass
        os._exit(23)
    return {"name": job.name}


register_job_kind(ScriptedJob.kind, _run_scripted)


class TestExecutorFaults:
    def test_retry_after_worker_crash(self, tmp_path):
        # The worker kills itself on the first attempt (leaving a marker)
        # and succeeds on the retry.
        job = ScriptedJob("flaky", crash_marker=str(tmp_path / "marker"))
        executor = JobExecutor(jobs=2, retries=2)
        payloads = executor.run([job])
        assert payloads[job.cache_key()] == {"name": "flaky"}
        assert executor.report.retries == 1
        assert executor.report.jobs_run == 1
        assert executor.report.jobs_failed == 0

    def test_crash_exhausts_retries(self):
        job = ScriptedJob("doomed", always_crash=True)
        executor = JobExecutor(jobs=2, retries=1)
        with pytest.raises(JobFailedError, match="crash"):
            executor.run([job])
        assert executor.report.retries == 1
        assert executor.report.jobs_failed == 1

    def test_timeout_kills_the_worker(self):
        job = ScriptedJob("sleepy", sleep=30.0)
        executor = JobExecutor(jobs=2, timeout=0.2, retries=0)
        started = time.perf_counter()
        with pytest.raises(JobFailedError, match="timed out"):
            executor.run([job])
        assert time.perf_counter() - started < 10.0
        assert executor.report.jobs_failed == 1

    def test_worker_exception_fails_fast(self):
        job = ScriptedJob("broken", raise_error=True)
        executor = JobExecutor(jobs=2, retries=3)
        with pytest.raises(JobFailedError, match="scripted failure"):
            executor.run([job])
        assert executor.report.retries == 0  # deterministic: no retry

    def test_serial_exception_wrapped(self):
        job = ScriptedJob("broken-serial", raise_error=True)
        executor = JobExecutor(jobs=1)
        with pytest.raises(JobFailedError, match="scripted failure"):
            executor.run([job])


class TestCacheBehaviour:
    def test_hit_and_miss_across_two_runners(self, tmp_path):
        first = ExperimentRunner(
            CONFIG, instruction_budget=1_500, store=str(tmp_path)
        )
        cold = first.run_policies(["mcf", "hmmer"], ["fr-fcfs", "stfm"])
        assert first.report.jobs_run == 4  # 2 alone + 2 shared
        assert first.report.hits == 0

        # A fresh runner (fresh process in real life) hits only the disk.
        second = ExperimentRunner(
            CONFIG, instruction_budget=1_500, store=str(tmp_path)
        )
        warm = second.run_policies(["mcf", "hmmer"], ["fr-fcfs", "stfm"])
        assert second.report.jobs_run == 0
        assert second.report.hits_disk == 4
        assert {k: v.summary_row() for k, v in cold.items()} == {
            k: v.summary_row() for k, v in warm.items()
        }

    def test_changed_seed_misses(self, tmp_path):
        first = ExperimentRunner(
            CONFIG, instruction_budget=1_500, store=str(tmp_path)
        )
        first.run_workload(["mcf", "hmmer"], "stfm")
        other_seed = ExperimentRunner(
            CONFIG, instruction_budget=1_500, seed=9, store=str(tmp_path)
        )
        other_seed.run_workload(["mcf", "hmmer"], "stfm")
        assert other_seed.report.hits == 0
        assert other_seed.report.jobs_run == 3

    def test_memory_cache_within_one_runner(self):
        runner = ExperimentRunner(CONFIG, instruction_budget=1_500)
        runner.run_workload(["mcf", "hmmer"], "stfm")
        runner.run_workload(["mcf", "hmmer"], "stfm")
        assert runner.report.jobs_run == 3
        assert runner.report.hits_memory == 3


class TestSerialParallelEquality:
    def test_engine_path_matches_in_process_system(self):
        """Differential check of the engine path: the same mix built and
        run in this process measures exactly what ``run_workload``
        reports, and the slowdowns divide by the alone baselines."""
        names = ["mcf", "hmmer"]
        runner = ExperimentRunner(CONFIG, instruction_budget=1_500)
        via_engine = runner.run_workload(names, "stfm")

        specs = [resolve_spec(name) for name in names]
        budgets = [runner.budget_for(spec) for spec in specs]
        policy = make_policy("stfm", num_threads=len(specs))
        system = build_system(CONFIG, runner.seed, specs, budgets, policy)
        snapshots = system.run()

        assert via_engine.policy == policy.name
        assert via_engine.extras == {
            "cycles": system.now,
            "fairness_rule_fraction": policy.fairness_rule_fraction,
        }
        assert [t.name for t in via_engine.threads] == names
        for i, thread in enumerate(via_engine.threads):
            stats = system.controller.thread_stats[i]
            assert thread.ipc_shared == snapshots[i].ipc
            assert thread.mcpi_shared == snapshots[i].mcpi
            assert thread.row_hit_rate_shared == stats.row_hit_rate
            alone = runner.alone_snapshot(specs[i], i, len(specs))
            assert thread.mcpi_alone == alone.mcpi
            assert thread.slowdown == memory_slowdown(
                snapshots[i].mcpi, alone.mcpi
            )

    def test_sweep_identical_serial_vs_parallel_and_warm_cache(self, tmp_path):
        """The acceptance criterion: >=4 workloads x all policies, equal
        metrics under --jobs 1 and --jobs 4, zero simulations when warm."""
        serial = ExperimentRunner(CONFIG, instruction_budget=1_200, jobs=1)
        rows_serial, text_serial = policy_sweep(
            serial, SWEEP_WORKLOADS, ALL_POLICIES
        )

        parallel = ExperimentRunner(
            CONFIG, instruction_budget=1_200, jobs=4, store=str(tmp_path)
        )
        rows_parallel, text_parallel = policy_sweep(
            parallel, SWEEP_WORKLOADS, ALL_POLICIES
        )
        assert rows_serial == rows_parallel  # floats compared exactly
        assert text_serial == text_parallel
        # mcf@slot0 is shared between workloads 1 and 3: 7 unique alone
        # jobs + 4x5 shared jobs.
        assert parallel.report.jobs_total == 27
        assert parallel.report.jobs_run == 27

        warm = ExperimentRunner(
            CONFIG, instruction_budget=1_200, jobs=4, store=str(tmp_path)
        )
        rows_warm, text_warm = policy_sweep(warm, SWEEP_WORKLOADS, ALL_POLICIES)
        assert warm.report.jobs_run == 0
        assert warm.report.hits_disk == 27
        assert rows_warm == rows_serial
        assert text_warm == text_serial

    @pytest.mark.slow
    def test_four_core_sweep_identical_at_small_scale(self, tmp_path):
        config = SystemConfig(num_cores=4)
        workloads = [
            ["mcf", "libquantum", "GemsFDTD", "astar"],
            ["libquantum", "cactusADM", "astar", "omnetpp"],
            ["mcf", "hmmer", "lbm", "omnetpp"],
            ["GemsFDTD", "astar", "mcf", "libquantum"],
        ]
        serial = ExperimentRunner(config, instruction_budget=6_000, jobs=1)
        rows_serial, _ = policy_sweep(serial, workloads, ALL_POLICIES)
        parallel = ExperimentRunner(
            config, instruction_budget=6_000, jobs=4, store=str(tmp_path)
        )
        rows_parallel, _ = policy_sweep(parallel, workloads, ALL_POLICIES)
        assert rows_serial == rows_parallel


class TestOptionsPlumbing:
    def test_make_runner_picks_up_ambient_options(self, tmp_path):
        with engine_options(EngineOptions(jobs=3, store=str(tmp_path))):
            runner = make_runner(2, Scale(budget=1_000, samples=1))
        assert runner.engine.executor.jobs == 3
        assert runner.engine.store is not None
        assert runner.engine.store.root == tmp_path

    def test_defaults_are_serial_and_unpersisted(self):
        runner = make_runner(2, Scale(budget=1_000, samples=1))
        assert runner.engine.executor.jobs == 1
        assert runner.engine.store is None

    def test_explicit_options_override_ambient(self, tmp_path):
        with engine_options(EngineOptions(jobs=3)):
            runner = make_runner(
                2, Scale(budget=1_000, samples=1), engine=EngineOptions(jobs=1)
            )
        assert runner.engine.executor.jobs == 1
