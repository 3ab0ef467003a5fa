"""The spec → engine bridge every job runs through.

:func:`execute_spec` is what the coordinator's in-process runners
(``stfm-sim serve``) and the cluster's runner processes both call.
Each execution builds its own :class:`~repro.engine.ExperimentRunner`
but hands it the caller's *shared* :class:`~repro.engine.ResultStore`
instance, which is what deduplicates identical run-alone / run-shared
sub-jobs across submitters — and whose hit/miss counters make that
dedup visible in ``/metrics``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.engine import EngineOptions, engine_options
from repro.engine.store import ResultStore
from repro.experiments import run_experiment
from repro.experiments.base import resolve_scale
from repro.experiments.io import result_to_dict
from repro.service.api import JobSpec, parse_spec, workload_result_to_dict
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner


def execute_spec(
    spec: "JobSpec | dict",
    store: "ResultStore | None" = None,
    engine_jobs: int = 1,
) -> dict:
    """Run one validated spec to its JSON result payload (blocking).

    This is the single entry point every runner calls — and the
    function the end-to-end tests call directly to establish the
    bit-identical baseline.
    """
    if isinstance(spec, dict):
        spec = parse_spec(spec)
    if spec.kind == "experiment":
        scale = resolve_scale(spec.scale)
        if spec.seed is not None:
            scale = replace(scale, seed=spec.seed)
        with engine_options(EngineOptions(jobs=engine_jobs, store=store)):
            result = run_experiment(spec.experiment, scale=scale)
        return {"kind": "experiment", **result_to_dict(result)}
    normalized = spec.normalized()
    config = SystemConfig(num_cores=normalized["num_cores"])
    runner = ExperimentRunner(
        config,
        instruction_budget=spec.budget,
        seed=normalized["seed"],
        jobs=engine_jobs,
        store=store,
    )
    result = runner.run_workload(
        list(spec.benchmarks), spec.policy, spec.policy_kwargs or None
    )
    return {"kind": "workload", **workload_result_to_dict(result)}
