"""Figure 5: 2-core systems — mcf paired with every other benchmark.

(a) memory slowdowns of mcf and its partner under FR-FCFS,
(b) the same under STFM,
(c) weighted speedup / sum-of-IPCs / hmean speedup of both schedulers.

The paper reports that STFM reduces average (geometric mean) unfairness
from 2.02 to 1.24 (76% of the excess over 1) with a maximum observed
unfairness of 1.74, while improving weighted speedup by 1% and hmean
speedup by 6.5%.
"""

from __future__ import annotations

from repro.analysis.compare import below
from repro.experiments.base import Experiment, ExperimentResult, resolve_scale
from repro.experiments.common import make_runner
from repro.metrics.stats import geometric_mean
from repro.sim.results import format_table
from repro.workloads.spec2006 import SPEC2006

#: The paper's summary of the 25 pairs.
PAPER = {
    "frfcfs_gmean_unfairness": 2.02,
    "stfm_gmean_unfairness": 1.24,
    "stfm_max_unfairness": 1.74,
    "weighted_speedup_gain": 1.01,
    "hmean_speedup_gain": 1.065,
}

#: The per-pair table: row field -> column header, in column order.
_COLUMNS = {
    "partner": "partner",
    "frfcfs_mcf": "FRFCFS:mcf",
    "frfcfs_partner": "FRFCFS:other",
    "frfcfs_unfairness": "FRFCFS:unf",
    "stfm_mcf": "STFM:mcf",
    "stfm_partner": "STFM:other",
    "stfm_unfairness": "STFM:unf",
}

#: Table 3 order, minus mcf itself.
PARTNERS = [name for name in SPEC2006 if name != "mcf"]


def run(scale="small", partners: list[str] | None = None) -> ExperimentResult:
    scale = resolve_scale(scale)
    runner = make_runner(2, scale)
    if partners is None:
        # The full 25-pair sweep is expensive; sample the spectrum at the
        # configured scale, always keeping the paper's highlighted pairs.
        highlighted = ["libquantum", "dealII", "GemsFDTD", "omnetpp", "hmmer"]
        remaining = [p for p in PARTNERS if p not in highlighted]
        step = max(1, len(remaining) // max(1, scale.samples))
        partners = highlighted + remaining[::step][: scale.samples]

    rows = []
    for partner in partners:
        workload = ["mcf", partner]
        frfcfs = runner.run_workload(workload, policy="fr-fcfs")
        stfm = runner.run_workload(workload, policy="stfm")
        row = {
            "partner": partner,
            "frfcfs_mcf": frfcfs.threads[0].slowdown,
            "frfcfs_partner": frfcfs.threads[1].slowdown,
            "frfcfs_unfairness": frfcfs.unfairness,
            "stfm_mcf": stfm.threads[0].slowdown,
            "stfm_partner": stfm.threads[1].slowdown,
            "stfm_unfairness": stfm.unfairness,
            "frfcfs_ws": frfcfs.weighted_speedup,
            "stfm_ws": stfm.weighted_speedup,
            "frfcfs_hmean": frfcfs.hmean_speedup,
            "stfm_hmean": stfm.hmean_speedup,
        }
        rows.append(row)
    table = format_table(
        list(_COLUMNS.values()), [[row[key] for key in _COLUMNS] for row in rows]
    )

    gmean_unf_frfcfs = geometric_mean([r["frfcfs_unfairness"] for r in rows])
    gmean_unf_stfm = geometric_mean([r["stfm_unfairness"] for r in rows])
    max_unf_stfm = max(r["stfm_unfairness"] for r in rows)
    gmean_ws_gain = geometric_mean(
        [r["stfm_ws"] / r["frfcfs_ws"] for r in rows]
    )
    gmean_hm_gain = geometric_mean(
        [r["stfm_hmean"] / r["frfcfs_hmean"] for r in rows]
    )
    summary = {
        "partner": "GMEAN",
        "frfcfs_unfairness": gmean_unf_frfcfs,
        "stfm_unfairness": gmean_unf_stfm,
        "stfm_max_unfairness": max_unf_stfm,
        "ws_gain": gmean_ws_gain,
        "hmean_gain": gmean_hm_gain,
    }
    rows.append(summary)

    text = (
        f"{table}\n\n"
        f"GMEAN unfairness: FR-FCFS {gmean_unf_frfcfs:.2f} -> STFM "
        f"{gmean_unf_stfm:.2f} (max STFM {max_unf_stfm:.2f})\n"
        f"STFM/FR-FCFS weighted-speedup x{gmean_ws_gain:.3f}, "
        f"hmean-speedup x{gmean_hm_gain:.3f}"
    )
    return ExperimentResult(
        experiment_id="fig5",
        title="2-core: mcf vs each benchmark, FR-FCFS vs STFM",
        rows=rows,
        text=text,
        paper_reference=(
            f"Paper: GMEAN unfairness {PAPER['frfcfs_gmean_unfairness']:.2f} "
            f"-> {PAPER['stfm_gmean_unfairness']:.2f} "
            f"(max {PAPER['stfm_max_unfairness']:.2f}); weighted speedup "
            f"+{PAPER['weighted_speedup_gain'] - 1:.0%}, hmean speedup "
            f"+{PAPER['hmean_speedup_gain'] - 1:.1%}."
        ),
    )


def _stfm_reduces_unfairness(rows: list[dict]):
    gmean = next(row for row in rows if row["partner"] == "GMEAN")
    return below(gmean["stfm_unfairness"], gmean["frfcfs_unfairness"])


EXPERIMENT = Experiment(
    run, PAPER, {"stfm_reduces_unfairness": _stfm_reduces_unfairness}
)
