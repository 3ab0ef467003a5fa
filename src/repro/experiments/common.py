"""Common experiment shapes: case studies and policy sweeps."""

from __future__ import annotations

from repro.engine.options import EngineOptions, current_options
from repro.experiments.base import Scale
from repro.experiments.charts import grouped_bar_chart
from repro.metrics.stats import geometric_mean
from repro.schedulers.registry import PAPER_ORDER
from repro.sim.config import SystemConfig
from repro.sim.results import WorkloadResult, format_table
from repro.sim.runner import ExperimentRunner, Workload
from repro.workloads.mixes import workload_name

ALL_POLICIES = list(PAPER_ORDER)


def make_runner(
    num_cores: int,
    scale: Scale,
    engine: "EngineOptions | None" = None,
    **config_kwargs,
) -> ExperimentRunner:
    """Build a runner; engine options come from the argument or the
    ambient :func:`repro.engine.options.engine_options` context (which
    the CLI installs from its ``--jobs`` / ``--cache-dir`` flags)."""
    options = engine if engine is not None else current_options()
    config = SystemConfig(num_cores=num_cores, **config_kwargs)
    return ExperimentRunner(
        config,
        instruction_budget=scale.budget,
        seed=scale.seed,
        jobs=options.jobs,
        store=options.store,
        timeout=options.timeout,
        retries=options.retries,
    )


def case_study(
    runner: ExperimentRunner,
    names: Workload,
    policies: list[str] | None = None,
    policy_kwargs: dict[str, dict] | None = None,
) -> tuple[list[dict], str]:
    """One workload under several policies: the Figure 6/7/8/10/13 shape.

    Returns per-policy rows (slowdown per thread + the four metrics) and
    the formatted pair of tables the paper presents: memory slowdowns and
    unfairness (left), throughput metrics (right).
    """
    policies = policies or ALL_POLICIES
    results = runner.run_policies(names, policies, policy_kwargs)
    thread_names = [t.name for t in next(iter(results.values())).threads]

    rows = []
    for policy, result in results.items():
        row = {"policy": result.policy, **result.summary_row()}
        for thread in result.threads:
            row[f"slowdown:{thread.name}"] = thread.slowdown
        rows.append(row)

    slowdown_table = format_table(
        ["policy", "unfairness"] + thread_names,
        [
            [r.policy, r.unfairness] + [t.slowdown for t in r.threads]
            for r in results.values()
        ],
    )
    metric_table = format_table(
        ["policy", "weighted_speedup", "sum_of_ipcs", "hmean_speedup"],
        [
            [r.policy, r.weighted_speedup, r.sum_of_ipcs, r.hmean_speedup]
            for r in results.values()
        ],
    )
    chart = grouped_bar_chart(
        {
            result.policy: {t.name: t.slowdown for t in result.threads}
            for result in results.values()
        },
        unit="x",
    )
    text = (
        f"workload: {workload_name(thread_names)}\n\n"
        f"{slowdown_table}\n\n{metric_table}\n\n"
        f"memory slowdowns (paper-figure shape):\n{chart}"
    )
    return rows, text


def policy_sweep(
    runner: ExperimentRunner,
    workloads: list[Workload],
    policies: list[str] | None = None,
) -> tuple[list[dict], str]:
    """Many workloads x policies with GMEAN aggregation (Figures 9/11/12).

    The whole cross product runs as one engine batch
    (:meth:`ExperimentRunner.run_sweep`): alone baselines shared between
    workloads are simulated once and shared runs parallelize across the
    runner's worker pool.
    """
    policies = policies or ALL_POLICIES
    per_workload: dict[str, dict[str, WorkloadResult]] = runner.run_sweep(
        workloads, policies
    )

    rows = []
    unfairness_rows = []
    for label, results in per_workload.items():
        row = {"workload": label}
        for policy, result in results.items():
            row[f"unfairness:{policy}"] = result.unfairness
        rows.append(row)
        unfairness_rows.append(
            [label] + [results[p].unfairness for p in policies]
        )

    gmean_row = {"workload": "GMEAN"}
    metric_rows = []
    for policy in policies:
        results = [per_workload[label][policy] for label in per_workload]
        gmean_row[f"unfairness:{policy}"] = geometric_mean(
            [r.unfairness for r in results]
        )
        metric_rows.append(
            [
                results[0].policy,
                geometric_mean([r.unfairness for r in results]),
                geometric_mean([r.weighted_speedup for r in results]),
                geometric_mean([max(r.sum_of_ipcs, 1e-9) for r in results]),
                geometric_mean([r.hmean_speedup for r in results]),
            ]
        )
    rows.append(gmean_row)

    unfairness_table = format_table(
        ["workload"] + [p for p in policies],
        unfairness_rows
        + [["GMEAN"] + [gmean_row[f"unfairness:{p}"] for p in policies]],
    )
    metric_table = format_table(
        [
            "policy",
            "GMEAN-unfairness",
            "GMEAN-weighted-speedup",
            "GMEAN-sum-of-ipcs",
            "GMEAN-hmean-speedup",
        ],
        metric_rows,
    )
    text = f"{unfairness_table}\n\n{metric_table}"
    return rows, text
