"""Extension: head-to-head with PAR-BS, STFM's successor.

The paper's line of work continued with Parallelism-Aware Batch
Scheduling (ISCA 2008), which achieves fairness via request batching
rather than slowdown estimation.  This experiment runs PAR-BS alongside
the paper's five schedulers on the three 4-core case-study workloads —
showing that both fairness-aware designs dominate the thread-oblivious
baselines, with different mechanisms.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, resolve_scale
from repro.experiments.common import make_runner
from repro.experiments.comparisons import (
    FIG6_WORKLOAD,
    FIG7_WORKLOAD,
    FIG8_WORKLOAD,
)
from repro.metrics.stats import geometric_mean
from repro.sim.results import format_table

POLICIES = ["fr-fcfs", "fcfs", "fr-fcfs+cap", "nfq", "stfm", "par-bs"]

WORKLOADS = {
    "intensive": FIG6_WORKLOAD,
    "mixed": FIG7_WORKLOAD,
    "non-intensive": FIG8_WORKLOAD,
}


def run(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    runner = make_runner(4, scale)
    rows = []
    per_policy_unfairness: dict[str, list[float]] = {p: [] for p in POLICIES}
    per_policy_ws: dict[str, list[float]] = {p: [] for p in POLICIES}
    table_rows = []
    for label, workload in WORKLOADS.items():
        for policy in POLICIES:
            result = runner.run_workload(workload, policy)
            per_policy_unfairness[policy].append(result.unfairness)
            per_policy_ws[policy].append(result.weighted_speedup)
            rows.append(
                {
                    "workload": label,
                    "policy": result.policy,
                    "unfairness": result.unfairness,
                    "weighted_speedup": result.weighted_speedup,
                    "hmean_speedup": result.hmean_speedup,
                }
            )
    for policy in POLICIES:
        unfairness = geometric_mean(per_policy_unfairness[policy])
        speedup = geometric_mean(per_policy_ws[policy])
        table_rows.append([policy, unfairness, speedup])
        rows.append(
            {
                "workload": "GMEAN",
                "policy": policy,
                "unfairness": unfairness,
                "weighted_speedup": speedup,
            }
        )
    text = format_table(
        ["policy", "GMEAN unfairness", "GMEAN weighted_speedup"], table_rows
    )
    return ExperimentResult(
        experiment_id="extension-parbs",
        title="STFM vs its successor PAR-BS (and the paper's baselines)",
        rows=rows,
        text=text,
        paper_reference=(
            "Extension beyond the paper: PAR-BS (ISCA 2008) achieves "
            "comparable fairness via batching; both dominate the "
            "thread-oblivious baselines."
        ),
    )
