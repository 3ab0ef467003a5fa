"""repro.engine — parallel experiment engine with a persistent result store.

Decomposes run-alone / run-shared experiments into a deduplicated job
graph (:mod:`~repro.engine.graph`), executes it serially or on a
multiprocessing worker pool with per-job timeout and bounded crash retry
(:mod:`~repro.engine.executor`), and memoizes payloads both in memory
and in a content-addressed on-disk store (:mod:`~repro.engine.store`)
so repeated runs and cross-experiment overlaps never re-simulate.

Typical use goes through :class:`~repro.sim.runner.ExperimentRunner`,
which plans and assembles via this package; direct use::

    from repro.engine import ExperimentEngine, ExperimentPlan

    plan = ExperimentPlan(SystemConfig(num_cores=4), instruction_budget=20_000)
    for policy in ("fr-fcfs", "stfm"):
        plan.add(["mcf", "libquantum", "GemsFDTD", "astar"], policy)
    engine = ExperimentEngine(jobs=4, store="~/.cache/stfm-sim")
    results = engine.execute(plan)
    print(engine.report.summary())
"""

from repro.engine.api import ExperimentEngine
from repro.engine.executor import (
    EngineReport,
    JobExecutor,
    JobFailedError,
    reset_session_report,
    session_report,
)
from repro.engine.graph import ExperimentPlan, WorkloadRequest
from repro.engine.jobs import (
    AloneJob,
    SharedJob,
    budget_for,
    execute_job,
    register_job_kind,
    resolve_spec,
)
from repro.engine.options import (
    EngineOptions,
    current_options,
    default_cache_dir,
    engine_options,
)
from repro.engine.backends import StoreBackend, create_backend
from repro.engine.store import CacheStore, ResultStore, StoreStats

__all__ = [
    "AloneJob",
    "CacheStore",
    "EngineOptions",
    "EngineReport",
    "ExperimentEngine",
    "ExperimentPlan",
    "JobExecutor",
    "JobFailedError",
    "ResultStore",
    "StoreBackend",
    "SharedJob",
    "StoreStats",
    "WorkloadRequest",
    "budget_for",
    "create_backend",
    "current_options",
    "default_cache_dir",
    "engine_options",
    "execute_job",
    "register_job_kind",
    "reset_session_report",
    "resolve_spec",
    "session_report",
]
