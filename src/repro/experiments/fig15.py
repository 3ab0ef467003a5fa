"""Figure 15: effect of STFM's alpha (maximum tolerable unfairness).

Alpha sweep {1.0, 1.05, 1.1, 1.2, 2, 5, 20} on the Figure 6 workload,
with FR-FCFS as the reference.  The paper: as alpha grows STFM converges
to FR-FCFS (unfairness and throughput); alpha = 1.0 applies the fairness
rule constantly and *loses* throughput versus 1.05-1.1 without gaining
fairness, because slowdown estimates are imperfect.
"""

from __future__ import annotations

from repro.analysis.compare import below, trend
from repro.experiments.base import Experiment, ExperimentResult, resolve_scale
from repro.experiments.common import make_runner
from repro.experiments.comparisons import FIG6_WORKLOAD as WORKLOAD
from repro.sim.results import format_table

ALPHAS = [1.0, 1.05, 1.1, 1.2, 2.0, 5.0, 20.0]


def run(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    runner = make_runner(4, scale)
    rows = []
    for alpha in ALPHAS:
        result = runner.run_workload(WORKLOAD, "stfm", {"alpha": alpha})
        rows.append(
            {
                "alpha": alpha,
                "unfairness": result.unfairness,
                "weighted_speedup": result.weighted_speedup,
                "sum_of_ipcs": result.sum_of_ipcs,
                "hmean_speedup": result.hmean_speedup,
                "fairness_rule_fraction": result.extras.get(
                    "fairness_rule_fraction", 0.0
                ),
            }
        )
    reference = runner.run_workload(WORKLOAD, "fr-fcfs")
    rows.append(
        {
            "alpha": None,
            "unfairness": reference.unfairness,
            "weighted_speedup": reference.weighted_speedup,
            "sum_of_ipcs": reference.sum_of_ipcs,
            "hmean_speedup": reference.hmean_speedup,
        }
    )
    text = format_table(
        ["scheme", "unfairness", "weighted_speedup", "sum_of_ipcs", "hmean"],
        [
            [f"alpha={row['alpha']}" if row["alpha"] is not None else "FR-FCFS"]
            + [row[key] for key in
               ("unfairness", "weighted_speedup", "sum_of_ipcs", "hmean_speedup")]
            for row in rows
        ],
    )
    return ExperimentResult(
        experiment_id="fig15",
        title="Effect of alpha on fairness and throughput",
        rows=rows,
        text=text,
        paper_reference=(
            "Paper: unfairness rises toward FR-FCFS's as alpha grows; "
            "alpha=1.1 beats alpha=1.0 on throughput at similar fairness."
        ),
    )


def _unfairness_rises_with_alpha(rows: list[dict]):
    return trend(
        [row["unfairness"] for row in rows if row["alpha"] is not None],
        "increasing",
    )


def _large_alpha_converges_to_frfcfs(rows: list[dict]):
    """alpha=20 lands within 35% of FR-FCFS's unfairness."""
    largest = [row for row in rows if row["alpha"] is not None][-1]
    frfcfs = next(row for row in rows if row["alpha"] is None)["unfairness"]
    return below(abs(largest["unfairness"] - frfcfs), 0.35 * frfcfs, strict=False)


EXPERIMENT = Experiment(
    run,
    shapes={
        "unfairness_rises_with_alpha": _unfairness_rises_with_alpha,
        "large_alpha_converges_to_frfcfs": _large_alpha_converges_to_frfcfs,
    },
)
