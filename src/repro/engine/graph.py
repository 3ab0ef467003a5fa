"""The job graph: decomposing experiments into deduplicated jobs.

An :class:`ExperimentPlan` collects (workload, policy) requests and
decomposes each into its simulation jobs — one :class:`AloneJob` per
core slot plus one :class:`SharedJob` — deduplicating by content
address as it goes.  The dedup is what makes batching pay: within one
workload, all policies share the same alone baselines; across
workloads, any benchmark appearing in the same core slot shares its
baseline too (it depends only on the memory system, Section 6.2), and
identical (workload, policy) pairs collapse into a single shared job.

Alone jobs are *assembly-time* dependencies of shared results, not
execution-time ones — a shared run never reads its baselines — so every
job in the plan can execute concurrently; :meth:`assemble` joins the
payloads into :class:`~repro.sim.results.WorkloadResult` objects
afterwards, in request order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.fairness import memory_slowdown
from repro.sim.config import SystemConfig
from repro.sim.results import ThreadResult, WorkloadResult
from repro.engine.jobs import (
    AloneJob,
    SharedJob,
    budget_for,
    freeze_kwargs,
    resolve_spec,
    snapshot_from_payload,
)
from repro.workloads.spec2006 import BenchmarkSpec


@dataclass(frozen=True)
class WorkloadRequest:
    """One (workload, policy) request and the jobs that realize it."""

    specs: tuple[BenchmarkSpec, ...]
    policy: str
    shared_key: str
    alone_keys: tuple[str, ...]


class ExperimentPlan:
    """Builds the deduplicated job graph for a batch of requests."""

    def __init__(
        self,
        config: SystemConfig,
        instruction_budget: int = 20_000,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.instruction_budget = instruction_budget
        self.seed = seed
        self._jobs: dict[str, object] = {}  # cache_key -> job, insertion order
        self.requests: list[WorkloadRequest] = []
        #: Times a requested job was already in the plan — the work the
        #: dedup avoided (before any cache is even consulted).
        self.dedup_hits = 0

    def _admit(self, job) -> str:
        key = job.cache_key()
        if key in self._jobs:
            self.dedup_hits += 1
        else:
            self._jobs[key] = job
        return key

    def add(
        self,
        names: "list[str | BenchmarkSpec]",
        policy: str = "fr-fcfs",
        policy_kwargs: dict | None = None,
    ) -> int:
        """Add one (workload, policy) request; returns its index."""
        if not names:
            raise ValueError("workload cannot be empty")
        if len(names) > self.config.num_cores:
            raise ValueError(
                f"{len(names)} benchmarks for {self.config.num_cores} cores"
            )
        specs = tuple(resolve_spec(name) for name in names)
        num = len(specs)
        budgets = tuple(
            budget_for(spec, self.instruction_budget) for spec in specs
        )
        alone_keys = tuple(
            self._admit(
                AloneJob(
                    spec=spec,
                    partition=i,
                    num_partitions=num,
                    budget=budgets[i],
                    seed=self.seed,
                    config=self.config,
                )
            )
            for i, spec in enumerate(specs)
        )
        shared_key = self._admit(
            SharedJob(
                specs=specs,
                policy=policy,
                policy_kwargs=freeze_kwargs(policy_kwargs),
                budgets=budgets,
                seed=self.seed,
                config=self.config,
            )
        )
        self.requests.append(
            WorkloadRequest(
                specs=specs,
                policy=policy,
                shared_key=shared_key,
                alone_keys=alone_keys,
            )
        )
        return len(self.requests) - 1

    def jobs(self) -> list:
        """All unique jobs, in first-needed order."""
        return list(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)

    def assemble(self, payloads: dict[str, dict]) -> list[WorkloadResult]:
        """Join job payloads into one WorkloadResult per request."""
        results = []
        for request in self.requests:
            shared = payloads[request.shared_key]
            threads = []
            for i, spec in enumerate(request.specs):
                alone = snapshot_from_payload(payloads[request.alone_keys[i]])
                entry = shared["threads"][i]
                shared_snap = snapshot_from_payload(entry)
                threads.append(
                    ThreadResult(
                        name=spec.name,
                        ipc_alone=alone.ipc,
                        ipc_shared=shared_snap.ipc,
                        mcpi_alone=alone.mcpi,
                        mcpi_shared=shared_snap.mcpi,
                        slowdown=memory_slowdown(shared_snap.mcpi, alone.mcpi),
                        row_hit_rate_shared=entry["row_hit_rate"],
                    )
                )
            extras = {"cycles": shared["cycles"], **shared.get("extras", {})}
            results.append(
                WorkloadResult(
                    policy=shared["policy_name"],
                    threads=tuple(threads),
                    extras=extras,
                )
            )
        return results
