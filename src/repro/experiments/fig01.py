"""Figure 1: memory slowdowns under thread-unaware FR-FCFS scheduling.

The motivating figure: a 4-core workload (hmmer, libquantum, h264ref,
omnetpp) and an 8-core workload (mcf, hmmer, GemsFDTD, libquantum,
omnetpp, astar, sphinx3, dealII) run under the baseline FR-FCFS
scheduler.  The paper reports a 7.74x slowdown for omnetpp vs 1.04x for
libquantum on 4 cores, and 11.35x (dealII) vs 1.09x (libquantum) on 8
cores — the high-row-buffer-locality streaming thread is effectively
never slowed while the others starve.
"""

from __future__ import annotations

from repro.analysis.compare import lowest
from repro.experiments.base import Experiment, ExperimentResult, resolve_scale
from repro.experiments.common import make_runner
from repro.sim.results import format_table

#: The paper's most and least slowed thread per core count.
PAPER = {
    4: {"most_slowed": ("omnetpp", 7.74), "least_slowed": ("libquantum", 1.04)},
    8: {"most_slowed": ("dealII", 11.35), "least_slowed": ("libquantum", 1.09)},
}

WORKLOAD_4CORE = ["hmmer", "libquantum", "h264ref", "omnetpp"]
WORKLOAD_8CORE = [
    "mcf",
    "hmmer",
    "GemsFDTD",
    "libquantum",
    "omnetpp",
    "astar",
    "sphinx3",
    "dealII",
]


def run(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    rows = []
    sections = []
    for cores, workload in ((4, WORKLOAD_4CORE), (8, WORKLOAD_8CORE)):
        runner = make_runner(cores, scale)
        result = runner.run_workload(workload, policy="fr-fcfs")
        for thread in result.threads:
            rows.append(
                {
                    "cores": cores,
                    "benchmark": thread.name,
                    "memory_slowdown": thread.slowdown,
                }
            )
        table = format_table(
            ["benchmark", "memory_slowdown"],
            [[t.name, t.slowdown] for t in result.threads],
        )
        sections.append(f"{cores}-core system (FR-FCFS):\n{table}")
    return ExperimentResult(
        experiment_id="fig1",
        title="Memory slowdown under FR-FCFS on 4-core and 8-core CMPs",
        rows=rows,
        text="\n\n".join(sections),
        paper_reference="Paper: " + "; ".join(
            f"{cores}-core {p['most_slowed'][0]} {p['most_slowed'][1]:.2f}x "
            f"vs {p['least_slowed'][0]} {p['least_slowed'][1]:.2f}x"
            for cores, p in PAPER.items()
        ) + ".",
    )


def _libquantum_least_slowed(cores: int):
    """FR-FCFS leaves the high-locality stream the least slowed thread."""

    def shape(rows: list[dict]):
        return lowest(
            {r["benchmark"]: r["memory_slowdown"] for r in rows if r["cores"] == cores},
            "libquantum",
        )

    return shape


EXPERIMENT = Experiment(
    run,
    PAPER,
    {f"libquantum_least_slowed_{cores}core": _libquantum_least_slowed(cores)
     for cores in PAPER},
)
