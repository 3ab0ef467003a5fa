"""Figures 6-13: the paper's five schedulers on one workload (a case
study) or on many workloads aggregated by GMEAN (a sweep).

Each figure is one row of :data:`COMPARISONS`: its workloads, the
unfairness the paper reports per scheduler, and the sentence quoting it.

* fig6, case study I (memory-intensive): GemsFDTD (0.2% row-buffer hit
  rate) is the FR-FCFS victim; mcf and astar are NFQ's (the idleness and
  access-balance problems).
* fig7, case study II (one benchmark per category): FCFS and FR-FCFS+Cap
  *increase* unfairness over FR-FCFS because the benchmarks' row-buffer
  localities are similar; NFQ favours the bursty leslie3d and h264ref
  over mcf.
* fig8, case study III (one intensive, three not): FR-FCFS starves the
  non-intensive threads behind libquantum's row hits; NFQ serializes
  omnetpp's and hmmer's bank parallelism.
* fig9, the 4-core sweep: the figure's ten sample workloads, topped up
  with a stratified sample of the 256 category combinations when the
  scale asks for more (the full enumeration is
  ``repro.workloads.mixes.category_pattern_workloads(4)``).
* fig10, a non-intensive 8-core case study: NFQ heavily penalizes the
  continuous mcf; the idleness problem grows with core count.
* fig11, the 8-core sweep over 32 diverse combinations: the gap between
  STFM and the others widens relative to 4 cores.
* fig12, the three 16-core workloads: NFQ becomes highly unfair and
  falls behind FCFS and FR-FCFS+Cap.
* fig13, the Section 7.4 desktop workload (two memory-intensive
  background threads, two interactive foreground ones): NFQ still
  penalizes the foreground threads, whose accesses concentrate on two or
  three banks.
"""

from __future__ import annotations

from repro.analysis.compare import lowest, ordering_agreement
from repro.experiments.base import Experiment, ExperimentResult, resolve_scale
from repro.experiments.common import ALL_POLICIES, case_study, make_runner, policy_sweep
from repro.workloads.desktop import DESKTOP_WORKLOAD
from repro.workloads.mixes import (
    category_pattern_workloads,
    sample_workloads_4core,
    sample_workloads_8core,
    sixteen_core_workloads,
)

#: The paper's names for :data:`ALL_POLICIES`, in the same order.
SCHEDULERS = ("FR-FCFS", "FCFS", "FR-FCFS+Cap", "NFQ", "STFM")

FIG6_WORKLOAD = ["mcf", "libquantum", "GemsFDTD", "astar"]
FIG7_WORKLOAD = ["mcf", "leslie3d", "h264ref", "bzip2"]
FIG8_WORKLOAD = ["libquantum", "omnetpp", "hmmer", "h264ref"]


def _sampled(cores: int, sample_workloads):
    """A figure's sample workloads, topped up past ten with a stratified
    sample of the category combinations."""

    def workloads(scale):
        chosen = sample_workloads(seed=scale.seed, count=min(scale.samples, 10))
        if scale.samples > 10:
            chosen += category_pattern_workloads(
                cores, scale.samples - 10, seed=scale.seed + 7
            )
        return chosen

    return workloads


def unfairness(rows: list[dict]) -> dict[str, float]:
    """Unfairness per scheduler, keyed like the paper's values: a case
    study's rows, or a sweep's GMEAN row."""
    if "policy" in rows[0]:
        return {row["policy"]: row["unfairness"] for row in rows}
    gmean = next(row for row in rows if row["workload"] == "GMEAN")
    return {
        name: gmean[f"unfairness:{key}"]
        for name, key in zip(SCHEDULERS, ALL_POLICIES)
        if gmean.get(f"unfairness:{key}") is not None
    }


def _comparison(experiment_id, title, cores, workloads, paper, quote):
    """Declare one figure.

    ``workloads`` is a case study's workload, or a sweep's function of
    the scale returning a list of workloads or a dict of named ones.
    ``paper`` holds the paper's unfairness in :data:`SCHEDULERS` order
    (None where it quotes none); ``quote`` becomes the result's
    ``paper_reference`` with ``{values}`` replaced by those numbers.
    """
    paper = dict(zip(SCHEDULERS, paper))
    sweep = callable(workloads)

    def run(scale="small") -> ExperimentResult:
        scale = resolve_scale(scale)
        runner = make_runner(cores, scale)
        if not sweep:
            rows, text = case_study(runner, workloads)
        else:
            chosen = workloads(scale)
            named = isinstance(chosen, dict)
            rows, text = policy_sweep(
                runner, list(chosen.values()) if named else chosen
            )
            if named:
                for row, label in zip(rows, [*chosen, "GMEAN"]):
                    row["label"] = label
        values = ", ".join(
            f"{name} {value:.2f}" for name, value in paper.items()
            if value is not None
        )
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            rows=rows,
            text=text,
            paper_reference=quote.format(values=values, **paper),
        )

    return Experiment(
        run,
        paper,
        {
            "stfm_fairest": lambda rows: lowest(unfairness(rows), "STFM"),
            "orders_like_paper": lambda rows: ordering_agreement(
                paper, unfairness(rows)
            ),
        },
    )


COMPARISONS: dict[str, Experiment] = {
    spec[0]: _comparison(*spec)
    for spec in (
        (
            "fig6", "Case study I: memory-intensive 4-core workload", 4,
            FIG6_WORKLOAD, (7.28, 2.07, 2.08, 1.87, 1.27),
            "Paper unfairness: {values}; "
            "STFM +3% weighted / +8% hmean over NFQ.",
        ),
        (
            "fig7", "Case study II: mixed-behaviour 4-core workload", 4,
            FIG7_WORKLOAD, (1.68, 1.87, 2.09, 1.77, 1.28),
            "Paper unfairness: {values}; "
            "STFM +4.8% weighted / +8% hmean over NFQ.",
        ),
        (
            "fig8", "Case study III: non-memory-intensive 4-core workload", 4,
            FIG8_WORKLOAD, (7.16, 1.49, 1.52, 1.94, 1.21),
            "Paper unfairness: {values}.",
        ),
        (
            "fig9", "4-core sweep: unfairness and throughput across workloads",
            4, _sampled(4, sample_workloads_4core),
            (5.31, 1.80, 1.65, 1.58, 1.24),
            "Paper GMEAN unfairness over 256 workloads: {values}.",
        ),
        (
            "fig10", "Non-memory-intensive 8-core workload", 8,
            ["mcf", "h264ref", "bzip2", "gromacs", "gobmk", "dealII", "wrf",
             "namd"],
            (3.46, 3.93, 4.14, 2.93, 1.30),
            "Paper unfairness: {values}.",
        ),
        (
            "fig11", "8-core sweep: unfairness and throughput across workloads",
            8, _sampled(8, sample_workloads_8core),
            (5.26, None, 2.64, 2.53, 1.40),
            "Paper GMEAN unfairness over 32 workloads: {values}.",
        ),
        (
            "fig12", "16-core workloads: high16 / high8+low8 / low16", 16,
            lambda scale: sixteen_core_workloads(),
            (None, 2.23, None, None, 1.75),
            "Paper: STFM improves average unfairness to {STFM:.2f} (FCFS "
            "{FCFS:.2f}, NFQ worse); +4.6% weighted / +15% hmean speedup "
            "over NFQ.",
        ),
        (
            "fig13", "Desktop 4-core workload (background vs foreground apps)",
            4, DESKTOP_WORKLOAD, (8.88, 7.42, 7.51, 1.75, 1.37),
            "Paper unfairness: {values}; STFM +5.4% weighted / +10.7% hmean.",
        ),
    )
}
