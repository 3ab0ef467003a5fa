"""Figure 14: thread weights — system-software support (Section 7.5).

Workload: libquantum, cactusADM, astar, omnetpp on 4 cores, with weights
(1, 16, 1, 1) and (1, 4, 8, 1).  NFQ expresses weights as bandwidth
shares; STFM scales slowdowns (``S' = 1 + (S-1)W``).  The paper: both
prioritize the heavy thread, but only STFM keeps *equal-weight* threads
equally slowed (equal-priority unfairness 1.29/1.20 vs NFQ's 2.77/2.99).
"""

from __future__ import annotations

from repro.analysis.compare import below
from repro.experiments.base import Experiment, ExperimentResult, resolve_scale
from repro.experiments.common import make_runner
from repro.metrics.fairness import unfairness_index
from repro.sim.results import format_table

WORKLOAD = ["libquantum", "cactusADM", "astar", "omnetpp"]
#: The paper's equal-priority unfairness per weight set and scheme.
PAPER = {
    (1.0, 16.0, 1.0, 1.0): {"NFQ-shares": 2.77, "STFM-weights": 1.29},
    (1.0, 4.0, 8.0, 1.0): {"NFQ-shares": 2.99, "STFM-weights": 1.20},
}
WEIGHT_SETS = list(PAPER)


def _equal_priority_unfairness(slowdowns, weights) -> float:
    """Unfairness among the largest group of equal-weight threads."""
    groups: dict[float, list[float]] = {}
    for slowdown, weight in zip(slowdowns, weights):
        groups.setdefault(weight, []).append(slowdown)
    largest = max(groups.values(), key=len)
    return unfairness_index(largest)


def run(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    runner = make_runner(4, scale)
    rows = []
    sections = []
    for weights in WEIGHT_SETS:
        schemes = {
            "FR-FCFS": runner.run_workload(WORKLOAD, "fr-fcfs"),
            "NFQ-shares": runner.run_workload(
                WORKLOAD, "nfq", {"shares": list(weights)}
            ),
            "STFM-weights": runner.run_workload(
                WORKLOAD, "stfm", {"weights": list(weights)}
            ),
        }
        table_rows = []
        for scheme, result in schemes.items():
            slowdowns = result.slowdowns
            equal_unf = _equal_priority_unfairness(slowdowns, weights)
            rows.append(
                {
                    "weights": weights,
                    "scheme": scheme,
                    "equal_priority_unfairness": equal_unf,
                    **{
                        f"slowdown:{t.name}": t.slowdown
                        for t in result.threads
                    },
                }
            )
            table_rows.append([scheme] + slowdowns + [equal_unf])
        label = "-".join(str(int(w)) for w in weights)
        table = format_table(
            ["scheme"] + WORKLOAD + ["equal-pri-unf"], table_rows
        )
        sections.append(f"weights {label}:\n{table}")
    return ExperimentResult(
        experiment_id="fig14",
        title="Thread weights: NFQ shares vs STFM weighted slowdowns",
        rows=rows,
        text="\n\n".join(sections),
        paper_reference="Paper equal-priority unfairness: " + "".join(
            f"weights {'-'.join(str(int(w)) for w in weights)} "
            f"NFQ {paper['NFQ-shares']:.2f} vs STFM {paper['STFM-weights']:.2f}; "
            for weights, paper in PAPER.items()
        ) + "both prioritize the heavy thread (STFM cactusADM 1.2x).",
    )


def _stfm_keeps_equal_weights_fairer(rows: list[dict]):
    """STFM's weights keep equal-weight threads fairer than NFQ's shares
    in every weight set; the margin is the tightest set's."""
    by_weights: dict[tuple, dict[str, float]] = {}
    for row in rows:
        by_weights.setdefault(tuple(row["weights"]), {})[row["scheme"]] = row[
            "equal_priority_unfairness"
        ]
    return min(
        (below(v["STFM-weights"], v["NFQ-shares"]) for v in by_weights.values()),
        key=lambda verdict: verdict.margin,
    )


EXPERIMENT = Experiment(
    run,
    PAPER,
    {"stfm_keeps_equal_weights_fairer": _stfm_keeps_equal_weights_fairer},
)
