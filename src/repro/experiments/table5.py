"""Table 5: sensitivity to DRAM bank count and row-buffer size.

8-core workloads under FR-FCFS and STFM with 4/8/16 banks and 1/2/4 KB
row buffers.  The paper: FR-FCFS unfairness *falls* with more banks
(fewer bank conflicts) and *rises* with bigger row buffers (more
column-over-row reordering); STFM's unfairness is essentially flat
(1.37-1.41) and its weighted-speedup advantage grows with bank count.
"""

from __future__ import annotations

from repro.analysis.compare import below, trend
from repro.experiments.base import Experiment, ExperimentResult, resolve_scale
from repro.experiments.common import make_runner
from repro.metrics.stats import geometric_mean
from repro.sim.results import format_table
from repro.workloads.mixes import sample_workloads_8core

#: The paper's GMEAN unfairness and weighted speedup per sensitivity
#: point, in the order the experiment runs them.
PAPER = {
    ("banks", 4): {"frfcfs_unfairness": 5.47, "stfm_unfairness": 1.41,
                   "frfcfs_ws": 2.41, "stfm_ws": 2.54},
    ("banks", 8): {"frfcfs_unfairness": 5.26, "stfm_unfairness": 1.40,
                   "frfcfs_ws": 2.75, "stfm_ws": 2.96},
    ("banks", 16): {"frfcfs_unfairness": 5.01, "stfm_unfairness": 1.39,
                    "frfcfs_ws": 3.14, "stfm_ws": 3.49},
    ("row_buffer", 1024): {"frfcfs_unfairness": 4.98, "stfm_unfairness": 1.37,
                           "frfcfs_ws": 2.53, "stfm_ws": 2.71},
    ("row_buffer", 2048): {"frfcfs_unfairness": 5.26, "stfm_unfairness": 1.40,
                           "frfcfs_ws": 2.75, "stfm_ws": 2.96},
    ("row_buffer", 4096): {"frfcfs_unfairness": 5.51, "stfm_unfairness": 1.38,
                           "frfcfs_ws": 2.81, "stfm_ws": 3.03},
}

#: The ``SystemConfig`` field each sensitivity axis sets.
_CONFIG_FIELD = {"banks": "num_banks", "row_buffer": "row_buffer_bytes"}


def point_label(axis: str, value: int) -> str:
    """``4 banks`` or ``2 KB row``."""
    return f"{value} banks" if axis == "banks" else f"{value // 1024} KB row"


def _sweep_point(scale, workloads, **config_kwargs) -> dict:
    runner = make_runner(8, scale, **config_kwargs)
    unf = {"fr-fcfs": [], "stfm": []}
    ws = {"fr-fcfs": [], "stfm": []}
    for workload in workloads:
        for policy in ("fr-fcfs", "stfm"):
            result = runner.run_workload(workload, policy)
            unf[policy].append(result.unfairness)
            ws[policy].append(result.weighted_speedup)
    return {
        "frfcfs_unfairness": geometric_mean(unf["fr-fcfs"]),
        "frfcfs_ws": geometric_mean(ws["fr-fcfs"]),
        "stfm_unfairness": geometric_mean(unf["stfm"]),
        "stfm_ws": geometric_mean(ws["stfm"]),
    }


def _frfcfs_series(axis: str, values: dict) -> list:
    return [v["frfcfs_unfairness"] for (a, _), v in values.items() if a == axis]


def run(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    workloads = sample_workloads_8core(
        seed=scale.seed, count=max(2, min(scale.samples, 6))
    )
    rows = [
        {
            "axis": axis,
            "value": value,
            **_sweep_point(scale, workloads, **{_CONFIG_FIELD[axis]: value}),
        }
        for axis, value in PAPER
    ]
    text = format_table(
        ["config", "FRFCFS unf", "FRFCFS ws", "STFM unf", "STFM ws"],
        [
            [point_label(row["axis"], row["value"]), row["frfcfs_unfairness"],
             row["frfcfs_ws"], row["stfm_unfairness"], row["stfm_ws"]]
            for row in rows
        ],
    )
    stfm = [paper["stfm_unfairness"] for paper in PAPER.values()]
    return ExperimentResult(
        experiment_id="table5",
        title="Sensitivity to DRAM banks and row-buffer size (8-core)",
        rows=rows,
        text=text,
        paper_reference=(
            "Paper: FR-FCFS unfairness "
            + "/".join(f"{v:.2f}" for v in _frfcfs_series("banks", PAPER))
            + " for 4/8/16 banks and "
            + "/".join(f"{v:.2f}" for v in _frfcfs_series("row_buffer", PAPER))
            + f" for 1/2/4 KB rows; STFM flat at {min(stfm):.2f}-{max(stfm):.2f}."
        ),
    )


def _by_point(rows: list[dict]) -> dict:
    return {(row["axis"], row["value"]): row for row in rows}


def _stfm_flat(rows: list[dict]):
    """STFM's unfairness varies by less than 15% across all six points."""
    stfm = [row["stfm_unfairness"] for row in rows]
    return below(max(stfm) / min(stfm), 1.15)


EXPERIMENT = Experiment(
    run,
    PAPER,
    {
        "frfcfs_falls_with_banks": lambda rows: trend(
            _frfcfs_series("banks", _by_point(rows)), "decreasing"
        ),
        "frfcfs_rises_with_row_buffer": lambda rows: trend(
            _frfcfs_series("row_buffer", _by_point(rows)), "increasing",
            tolerance=0.05,
        ),
        "stfm_flat": _stfm_flat,
    },
)
