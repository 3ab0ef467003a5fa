"""Simulation jobs: the unit of work of the experiment engine.

The run-alone / run-shared methodology (Section 6.2) decomposes into two
job kinds:

* an :class:`AloneJob` runs one benchmark alone under FR-FCFS — the
  slowdown baseline.  It depends only on the memory system, the trace
  seed and the instruction budget, *not* on co-runners, so one alone job
  feeds every workload (and every policy) that contains the benchmark in
  the same core slot.
* a :class:`SharedJob` runs a multiprogrammed workload under one
  scheduling policy.

Both are frozen dataclasses built from frozen dataclasses
(:class:`~repro.workloads.spec2006.BenchmarkSpec`,
:class:`~repro.sim.config.SystemConfig`), which makes them hashable,
picklable, and — crucially — gives them a *canonical identity*:
:meth:`cache_key` hashes every input the simulation result depends on
(spec, partition, budget, seed, policy + kwargs, memory system, safety
ceiling), so results can be persisted on disk and shared across
processes and invocations safely.

Jobs execute to JSON-serializable *payloads* (plain dicts of ints,
floats and strings), never to live simulator objects: payloads survive
the round-trips through worker pipes and the on-disk result store
bit-identically (Python floats round-trip exactly through ``repr`` and
therefore through JSON).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Sequence

from repro.cpu.core import CoreSnapshot
from repro.cpu.trace import Trace
from repro.schedulers.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.workloads.spec2006 import BenchmarkSpec, benchmark
from repro.workloads.synthetic import SyntheticTraceGenerator


def resolve_spec(item: "str | BenchmarkSpec") -> BenchmarkSpec:
    """Accept either a registry name or an explicit spec."""
    if isinstance(item, BenchmarkSpec):
        return item
    return benchmark(item)


#: A non-memory-intensive benchmark's budget is extended until its trace
#: holds at least this many demand reads; otherwise its MCPI (and thus
#: slowdown) would be statistical noise.  The paper's uniform
#: 100M-instruction budgets provide this implicitly.
MIN_READS = 100
#: Cap on that extension, as a multiple of the base budget.
MAX_BUDGET_FACTOR = 50


def budget_for(spec: BenchmarkSpec, instruction_budget: int) -> int:
    """Per-benchmark instruction budget (see :data:`MIN_READS`)."""
    if spec.mpki <= 0:
        return instruction_budget
    needed = int(MIN_READS * 1000.0 / spec.mpki)
    return min(
        max(instruction_budget, needed), instruction_budget * MAX_BUDGET_FACTOR
    )


# -- canonical keys ---------------------------------------------------------


def _canonical(value: Any) -> Any:
    """Reduce a value to nested tuples of primitives with stable repr."""
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return tuple(
            (f.name, _canonical(getattr(value, f.name))) for f in fields(value)
        )
    return value


def spec_key(spec: BenchmarkSpec) -> tuple:
    return _canonical(spec)


def config_key(config: SystemConfig) -> tuple:
    """Everything about the system a simulation result depends on.

    ``memory_key()`` deliberately excludes ``num_cores`` (baselines are
    shared across core counts with the same memory system); the safety
    ceiling ``max_cycles`` is included because a run that hits it is
    truncated.
    """
    return _canonical(config.memory_key()) + (("max_cycles", config.max_cycles),)


def freeze_kwargs(kwargs: dict | None) -> tuple:
    """Canonicalize policy kwargs into a hashable, ordered form."""
    return _canonical(kwargs or {})


def thaw_kwargs(frozen: tuple) -> dict:
    """Back to constructor form.  Sequence values stay tuples — every
    policy option (``weights``, ``shares``) only indexes its sequence."""
    return {key: value for key, value in frozen}


def _digest(key: tuple) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()


# -- the two job kinds ------------------------------------------------------


@dataclass(frozen=True)
class AloneJob:
    """Run one benchmark alone under FR-FCFS (the slowdown baseline)."""

    spec: BenchmarkSpec
    partition: int
    num_partitions: int
    budget: int
    seed: int
    config: SystemConfig

    kind: ClassVar[str] = "alone"

    def key(self) -> tuple:
        return (
            self.kind,
            spec_key(self.spec),
            self.partition,
            self.num_partitions,
            self.budget,
            self.seed,
            config_key(self.config),
        )

    def cache_key(self) -> str:
        return _digest(self.key())

    def describe(self) -> str:
        return f"alone {self.spec.name} [{self.partition}/{self.num_partitions}]"


@dataclass(frozen=True)
class SharedJob:
    """Run a multiprogrammed workload under one scheduling policy."""

    specs: tuple[BenchmarkSpec, ...]
    policy: str
    policy_kwargs: tuple  # output of freeze_kwargs()
    budgets: tuple[int, ...]
    seed: int
    config: SystemConfig

    kind: ClassVar[str] = "shared"

    def key(self) -> tuple:
        return (
            self.kind,
            tuple(spec_key(spec) for spec in self.specs),
            self.policy,
            self.policy_kwargs,
            self.budgets,
            self.seed,
            config_key(self.config),
        )

    def cache_key(self) -> str:
        return _digest(self.key())

    def describe(self) -> str:
        names = "+".join(spec.name for spec in self.specs)
        return f"shared {names} under {self.policy}"


# -- trace construction -----------------------------------------------------

#: Per-process memo of generated traces.  Trace generation is fully
#: deterministic in (seed, spec, partition) — see SyntheticTraceGenerator
#: — so regenerating in a worker process yields bit-identical traces;
#: this cache only saves time when one process runs many jobs (the
#: serial path, or an alone baseline followed by its shared runs).
_TRACE_CACHE: dict[tuple, Trace] = {}
_TRACE_CACHE_LIMIT = 256


def build_trace(
    config: SystemConfig,
    seed: int,
    spec: BenchmarkSpec,
    budget: int,
    partition: int,
    num_partitions: int,
) -> Trace:
    key = (
        spec_key(spec),
        budget,
        partition,
        num_partitions,
        seed,
        config_key(config),
    )
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        generator = SyntheticTraceGenerator(config.mapper(), seed)
        trace = generator.trace_for(
            spec, budget, partition=partition, num_partitions=num_partitions
        )
        if len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            _TRACE_CACHE.clear()
        _TRACE_CACHE[key] = trace
    return trace


# -- execution --------------------------------------------------------------


def snapshot_payload(snapshot: CoreSnapshot) -> dict:
    return {
        "instructions": snapshot.instructions,
        "cycles": snapshot.cycles,
        "memory_stall_cycles": snapshot.memory_stall_cycles,
        "reads_issued": snapshot.reads_issued,
    }


def snapshot_from_payload(payload: dict) -> CoreSnapshot:
    return CoreSnapshot(
        instructions=payload["instructions"],
        cycles=payload["cycles"],
        memory_stall_cycles=payload["memory_stall_cycles"],
        reads_issued=payload["reads_issued"],
    )


def build_system(
    config: SystemConfig,
    seed: int,
    specs: Sequence[BenchmarkSpec],
    budgets: Sequence[int],
    policy,
) -> CmpSystem:
    """The shared run of ``specs`` under a live ``policy``: core ``i``
    runs ``specs[i]`` on address partition ``i`` for ``budgets[i]``
    instructions."""
    num = len(specs)
    traces = [
        build_trace(config, seed, spec, budgets[i], i, num)
        for i, spec in enumerate(specs)
    ]
    return CmpSystem(
        config,
        traces,
        policy,
        list(budgets),
        mlp_limits=[spec.mlp for spec in specs],
    )


def run_alone_job(job: AloneJob) -> dict:
    trace = build_trace(
        job.config, job.seed, job.spec, job.budget, job.partition,
        job.num_partitions,
    )
    policy = make_policy("fr-fcfs", num_threads=1)
    system = CmpSystem(
        job.config, [trace], policy, job.budget, mlp_limits=[job.spec.mlp]
    )
    snapshot = system.run()[0]
    return snapshot_payload(snapshot)


def run_shared_job(job: SharedJob) -> dict:
    num = len(job.specs)
    policy = make_policy(
        job.policy, num_threads=num, **thaw_kwargs(job.policy_kwargs)
    )
    system = build_system(job.config, job.seed, job.specs, job.budgets, policy)
    snapshots = system.run()
    threads = []
    for i in range(num):
        thread = snapshot_payload(snapshots[i])
        thread["row_hit_rate"] = system.controller.thread_stats[i].row_hit_rate
        threads.append(thread)
    payload = {
        "policy_name": policy.name,
        "cycles": system.now,
        "threads": threads,
        "extras": {},
    }
    if hasattr(policy, "fairness_rule_fraction"):
        payload["extras"]["fairness_rule_fraction"] = policy.fairness_rule_fraction
    return payload


#: Job-kind dispatch table.  Tests (and future subsystems) may register
#: additional kinds; with the default ``fork`` start method the registry
#: is inherited by worker processes.
JOB_RUNNERS: dict[str, Callable[[Any], dict]] = {
    AloneJob.kind: run_alone_job,
    SharedJob.kind: run_shared_job,
}


def register_job_kind(kind: str, runner: Callable[[Any], dict]) -> None:
    """Register an executor for a custom job kind.

    A job is any object with ``kind``, ``cache_key()`` and
    ``describe()``; its runner must return a JSON-serializable dict.
    """
    JOB_RUNNERS[kind] = runner


def execute_job(job) -> dict:
    """Run one job to its payload (in the calling process)."""
    try:
        runner = JOB_RUNNERS[job.kind]
    except KeyError:
        raise ValueError(f"unknown job kind {job.kind!r}") from None
    return runner(job)
