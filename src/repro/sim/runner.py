"""Run-alone / run-shared experiment methodology (Section 6.2).

A thread's memory slowdown compares its shared-run MCPI against the MCPI
it achieves *running alone in the same memory system under FR-FCFS*.
The runner is the front door to the :mod:`repro.engine` subsystem, the
one code path that produces a :class:`WorkloadResult`: each request
becomes an :class:`~repro.engine.graph.ExperimentPlan` of alone and
shared jobs, the engine runs them, and the plan joins the payloads into
slowdowns.  Alone baselines are deduplicated across workloads and
policies (the baseline depends only on the memory system, not on the
co-runners), jobs run on a worker pool when ``jobs > 1``, and payloads
are memoized in memory and, when a ``store`` is given, in a
content-addressed result store shared across processes and invocations.
``jobs=1`` (the default) is the serial in-process degenerate case,
bit-identical to parallel execution.
"""

from __future__ import annotations

from repro.cpu.core import CoreSnapshot
from repro.engine.api import ExperimentEngine
from repro.engine.graph import ExperimentPlan
from repro.engine.jobs import (
    AloneJob,
    budget_for,
    build_trace,
    resolve_spec,
    snapshot_from_payload,
)
from repro.engine.store import ResultStore
from repro.sim.config import SystemConfig
from repro.sim.results import WorkloadResult
from repro.workloads.spec2006 import BenchmarkSpec

Workload = list["str | BenchmarkSpec"]


class ExperimentRunner:
    """Runs workloads under scheduling policies and computes slowdowns."""

    def __init__(
        self,
        config: SystemConfig,
        instruction_budget: int = 20_000,
        seed: int = 0,
        jobs: int = 1,
        store: "ResultStore | str | None" = None,
        timeout: "float | None" = None,
        retries: int = 1,
    ) -> None:
        """Create a runner.

        Args:
            config: The system under test.
            instruction_budget: Base per-thread instruction budget
                (extended for non-intensive benchmarks, see
                :func:`repro.engine.jobs.budget_for`).
            seed: Workload-generation seed.
            jobs: Simulation worker processes (1 = serial, in-process).
            store: Persist job results in this :class:`ResultStore`, or
                in one at this location (a directory, ``sqlite:`` path or
                ``http://`` proxy URL); None keeps results in memory only.
            timeout: Per-job wall-clock limit in seconds (parallel only).
            retries: Extra attempts after a worker crash or timeout.
        """
        if instruction_budget < 1:
            raise ValueError("instruction budget must be positive")
        self.config = config
        self.instruction_budget = instruction_budget
        self.seed = seed
        self.engine = ExperimentEngine(
            jobs=jobs, store=store, timeout=timeout, retries=retries
        )

    @property
    def report(self):
        """Cumulative engine activity (jobs run / cached / failed ...)."""
        return self.engine.report

    def budget_for(self, name: "str | BenchmarkSpec") -> int:
        """Per-benchmark instruction budget (see :func:`budget_for`)."""
        return budget_for(resolve_spec(name), self.instruction_budget)

    def _plan(self) -> ExperimentPlan:
        return ExperimentPlan(
            self.config,
            instruction_budget=self.instruction_budget,
            seed=self.seed,
        )

    def trace_for(
        self, name: "str | BenchmarkSpec", partition: int, num_partitions: int
    ):
        spec = resolve_spec(name)
        return build_trace(
            self.config, self.seed, spec, self.budget_for(spec), partition,
            num_partitions,
        )

    def alone_snapshot(
        self, name: "str | BenchmarkSpec", partition: int, num_partitions: int
    ) -> CoreSnapshot:
        """Run (or recall) the benchmark alone under FR-FCFS."""
        spec = resolve_spec(name)
        job = AloneJob(
            spec=spec,
            partition=partition,
            num_partitions=num_partitions,
            budget=self.budget_for(spec),
            seed=self.seed,
            config=self.config,
        )
        payloads = self.engine.run_jobs([job])
        return snapshot_from_payload(payloads[job.cache_key()])

    def run_workload(
        self,
        names: Workload,
        policy: str = "fr-fcfs",
        policy_kwargs: dict | None = None,
    ) -> WorkloadResult:
        """Run a multiprogrammed workload and compute all metrics.

        Args:
            names: Benchmark names or explicit specs, one per core
                (duplicates allowed — each core slot gets its own
                address partition).
            policy: Policy name (see :func:`repro.schedulers.make_policy`).
            policy_kwargs: Extra options for the policy factory.
        """
        plan = self._plan()
        plan.add(names, policy, policy_kwargs)
        return self.engine.execute(plan)[0]

    def run_policies(
        self,
        names: Workload,
        policies: list[str],
        policy_kwargs: dict[str, dict] | None = None,
    ) -> dict[str, WorkloadResult]:
        """Run one workload under several policies (the case-study shape).

        All policies' jobs form one batch: the workload's alone baselines
        are simulated once, and the shared runs execute concurrently when
        the runner has ``jobs > 1``.
        """
        kwargs = policy_kwargs or {}
        plan = self._plan()
        order = []
        for policy in policies:
            if policy in order:
                continue
            order.append(policy)
            plan.add(names, policy, kwargs.get(policy))
        results = self.engine.execute(plan)
        return dict(zip(order, results))

    def run_sweep(
        self,
        workloads: list[Workload],
        policies: list[str],
        policy_kwargs: dict[str, dict] | None = None,
    ) -> dict[str, dict[str, WorkloadResult]]:
        """Run many workloads × policies as one deduplicated job batch.

        Returns ``{workload label: {policy: result}}`` with labels from
        :func:`repro.workloads.mixes.workload_name`.  This is the sweep
        shape (Figures 9/11/12): the whole cross product executes as one
        engine batch, so alone baselines shared between workloads are
        simulated exactly once and all shared runs parallelize.
        """
        from repro.workloads.mixes import workload_name

        kwargs = policy_kwargs or {}
        plan = self._plan()
        labels = []
        for workload in workloads:
            specs = [resolve_spec(name) for name in workload]
            labels.append(workload_name([spec.name for spec in specs]))
            for policy in policies:
                plan.add(workload, policy, kwargs.get(policy))
        results = self.engine.execute(plan)
        sweep: dict[str, dict[str, WorkloadResult]] = {}
        index = 0
        for label in labels:
            per_policy = sweep.setdefault(label, {})
            for policy in policies:
                per_policy[policy] = results[index]
                index += 1
        return sweep
