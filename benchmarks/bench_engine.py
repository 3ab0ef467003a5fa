"""Benchmark the parallel experiment engine on a small policy sweep.

Three measurements over the same 4-workload x 5-policy sweep (27 unique
simulation jobs after alone-baseline dedup):

* ``serial`` — the ``--jobs 1`` degenerate case (the pre-engine code
  path's cost);
* ``parallel`` — a cold 4-worker pool run (speedup bounded by the
  machine's core count; on a single-core box expect ~1x plus fork
  overhead);
* ``warm_cache`` — a rerun against the persistent result store: zero
  simulations, wall time is pure store-read cost.

Run with::

    pytest benchmarks/bench_engine.py -m slow --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ALL_POLICIES, policy_sweep
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner

WORKLOADS = [
    ["mcf", "hmmer"],
    ["libquantum", "omnetpp"],
    ["mcf", "libquantum"],
    ["GemsFDTD", "astar"],
]
BUDGET = 6_000
CONFIG = SystemConfig(num_cores=2)


def _sweep(runner: ExperimentRunner):
    return policy_sweep(runner, WORKLOADS, ALL_POLICIES)


def _attach(benchmark, runner: ExperimentRunner) -> None:
    report = runner.report
    benchmark.extra_info["jobs_total"] = report.jobs_total
    benchmark.extra_info["jobs_run"] = report.jobs_run
    benchmark.extra_info["cache_hits"] = report.hits
    benchmark.extra_info["sim_time"] = round(report.sim_time, 3)
    benchmark.extra_info["speedup_vs_serial_sim"] = round(report.speedup, 2)


@pytest.mark.slow
def test_engine_serial_baseline(benchmark):
    runner = ExperimentRunner(CONFIG, instruction_budget=BUDGET, jobs=1)
    rows, _ = benchmark.pedantic(_sweep, args=(runner,), rounds=1, iterations=1)
    assert rows[-1]["workload"] == "GMEAN"
    _attach(benchmark, runner)


@pytest.mark.slow
def test_engine_parallel_speedup(benchmark, tmp_path):
    runner = ExperimentRunner(
        CONFIG, instruction_budget=BUDGET, jobs=4, store=str(tmp_path)
    )
    rows, _ = benchmark.pedantic(_sweep, args=(runner,), rounds=1, iterations=1)
    assert rows[-1]["workload"] == "GMEAN"
    assert runner.report.jobs_run == runner.report.jobs_total
    _attach(benchmark, runner)


@pytest.mark.slow
def test_engine_warm_cache_wall_time(benchmark, tmp_path):
    cache = str(tmp_path / "store")
    cold = ExperimentRunner(
        CONFIG, instruction_budget=BUDGET, jobs=4, store=cache
    )
    cold_rows, _ = _sweep(cold)

    warm = ExperimentRunner(
        CONFIG, instruction_budget=BUDGET, jobs=4, store=cache
    )
    warm_rows, _ = benchmark.pedantic(
        _sweep, args=(warm,), rounds=1, iterations=1
    )
    # Zero new simulations, identical metrics.
    assert warm.report.jobs_run == 0
    assert warm.report.hits_disk == warm.report.jobs_total
    assert warm_rows == cold_rows
    _attach(benchmark, warm)
