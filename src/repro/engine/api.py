"""The engine façade: plan in, WorkloadResults out."""

from __future__ import annotations

from typing import Any, Iterable

from repro.engine.executor import JobExecutor
from repro.engine.graph import ExperimentPlan
from repro.engine.store import ResultStore
from repro.sim.results import WorkloadResult


class ExperimentEngine:
    """Executes experiment plans on a worker pool with result caching.

    One engine owns one executor, whose in-memory payload cache persists
    across :meth:`execute` calls — a runner that issues several plans
    (say, one per experiment figure) transparently reuses overlapping
    jobs; the optional result store (a :class:`ResultStore` or a location
    string) extends that across processes and invocations.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: "ResultStore | str | None" = None,
        timeout: "float | None" = None,
        retries: int = 1,
    ) -> None:
        self.executor = JobExecutor(
            jobs=jobs, store=store, timeout=timeout, retries=retries
        )

    @property
    def report(self):
        """Cumulative :class:`EngineReport` of this engine."""
        return self.executor.report

    @property
    def store(self) -> "ResultStore | None":
        return self.executor.store

    def run_jobs(self, jobs: Iterable[Any]) -> dict[str, dict]:
        """Execute raw jobs → {cache_key: payload}."""
        return self.executor.run(jobs)

    def execute(self, plan: ExperimentPlan) -> list[WorkloadResult]:
        """Run a plan's job graph and assemble results in request order."""
        payloads = self.executor.run(plan.jobs())
        return plan.assemble(payloads)
