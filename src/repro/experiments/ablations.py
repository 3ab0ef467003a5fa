"""Ablations of design choices the paper (and our reproduction) makes.

These go beyond the paper's printed figures, probing the parameters its
text discusses qualitatively:

* ``ablate-gamma`` — the bank-parallelism scaling factor gamma.  The
  paper set gamma = 1/2 empirically (footnote 9: it "captures the
  average degree of bank parallelism accurately").
* ``ablate-interval`` — IntervalLength.  Section 6.3: fairness degrades
  below 2**18 because slowdown estimates become unreliable over short
  sampling windows.
* ``ablate-estimator`` — interference accounting basis.  DESIGN.md
  documents our deviation from the paper's literal "ready command"
  wording; this ablation quantifies it.
* ``ablate-cap`` — FR-FCFS+Cap's cap (the paper uses 4, "based on
  empirical evaluation").
* ``ablate-page-policy`` — open-page (baseline) vs closed-page DRAM.
* ``ablate-refresh`` — DRAM auto-refresh on/off (not modeled in the
  paper; included to show it does not change the conclusions).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, resolve_scale
from repro.experiments.common import make_runner
from repro.experiments.comparisons import FIG6_WORKLOAD as WORKLOAD
from repro.sim.results import format_table


def _stfm_sweep(
    scale,
    label: str,
    values,
    kwargs_for,
    experiment_id: str,
    title: str,
    paper_reference: str,
    interval_length: int | None = None,
) -> ExperimentResult:
    runner = make_runner(4, scale)
    rows = []
    table_rows = []
    for value in values:
        result = runner.run_workload(WORKLOAD, "stfm", kwargs_for(value))
        rows.append(
            {
                label: value,
                "unfairness": result.unfairness,
                "weighted_speedup": result.weighted_speedup,
                "hmean_speedup": result.hmean_speedup,
            }
        )
        table_rows.append(
            [
                f"{label}={value}",
                result.unfairness,
                result.weighted_speedup,
                result.hmean_speedup,
            ]
        )
    text = format_table(
        ["config", "unfairness", "weighted_speedup", "hmean_speedup"],
        table_rows,
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        rows=rows,
        text=text,
        paper_reference=paper_reference,
    )


def run_gamma(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    return _stfm_sweep(
        scale,
        "gamma",
        [0.25, 0.5, 1.0, 2.0],
        lambda g: {"gamma": g},
        "ablate-gamma",
        "STFM gamma (bank-parallelism scaling) sweep",
        "Paper footnote 9: gamma = 1/2 chosen empirically.",
    )


def run_interval(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    # Our runs are far shorter than the paper's, so the interesting
    # break-point scales down with them; sweep decades around it.
    return _stfm_sweep(
        scale,
        "interval",
        [1 << 12, 1 << 14, 1 << 16, 1 << 20, 1 << 24],
        lambda n: {"interval_length": n},
        "ablate-interval",
        "STFM IntervalLength (register reset period) sweep",
        "Paper Section 6.3: fairness degrades for IntervalLength < 2**18 "
        "(at 100M-instruction runs).",
    )


def run_estimator_basis(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    return _stfm_sweep(
        scale,
        "basis",
        ["waiting", "ready"],
        lambda b: {"interference_basis": b},
        "ablate-estimator",
        "Interference accounting basis: waiting vs literal ready",
        "DESIGN.md substitution note: the ready basis underestimates "
        "victims' delay at command granularity, weakening the fairness "
        "rule's trigger.",
    )


def run_cap(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    runner = make_runner(4, scale)
    rows = []
    table_rows = []
    for cap in (1, 2, 4, 8, 16):
        result = runner.run_workload(WORKLOAD, "fr-fcfs+cap", {"cap": cap})
        rows.append(
            {
                "cap": cap,
                "unfairness": result.unfairness,
                "weighted_speedup": result.weighted_speedup,
            }
        )
        table_rows.append([f"cap={cap}", result.unfairness, result.weighted_speedup])
    reference = runner.run_workload(WORKLOAD, "fr-fcfs")
    rows.append(
        {
            "cap": None,
            "unfairness": reference.unfairness,
            "weighted_speedup": reference.weighted_speedup,
        }
    )
    table_rows.append(
        ["FR-FCFS (no cap)", reference.unfairness, reference.weighted_speedup]
    )
    return ExperimentResult(
        experiment_id="ablate-cap",
        title="FR-FCFS+Cap column-bypass cap sweep",
        rows=rows,
        text=format_table(
            ["config", "unfairness", "weighted_speedup"], table_rows
        ),
        paper_reference="Paper Section 6.3: cap = 4 chosen empirically.",
    )


def run_page_policy(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    rows = []
    table_rows = []
    for page_policy in ("open", "closed"):
        runner = make_runner(4, scale, page_policy=page_policy)
        for policy in ("fr-fcfs", "stfm"):
            result = runner.run_workload(WORKLOAD, policy)
            rows.append(
                {
                    "page_policy": page_policy,
                    "scheduler": result.policy,
                    "unfairness": result.unfairness,
                    "weighted_speedup": result.weighted_speedup,
                }
            )
            table_rows.append(
                [
                    f"{page_policy}-page / {result.policy}",
                    result.unfairness,
                    result.weighted_speedup,
                ]
            )
    return ExperimentResult(
        experiment_id="ablate-page-policy",
        title="Open-page vs closed-page DRAM row management",
        rows=rows,
        text=format_table(
            ["config", "unfairness", "weighted_speedup"], table_rows
        ),
        paper_reference=(
            "Closed-page removes the row-hit bias FR-FCFS exploits "
            "(lower unfairness, lower throughput for locality-heavy mixes)."
        ),
    )


def run_refresh(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    rows = []
    table_rows = []
    for refresh in (False, True):
        runner = make_runner(4, scale, refresh_enabled=refresh)
        result = runner.run_workload(WORKLOAD, "stfm")
        rows.append(
            {
                "refresh": refresh,
                "unfairness": result.unfairness,
                "weighted_speedup": result.weighted_speedup,
            }
        )
        table_rows.append(
            [
                f"refresh={'on' if refresh else 'off'}",
                result.unfairness,
                result.weighted_speedup,
            ]
        )
    return ExperimentResult(
        experiment_id="ablate-refresh",
        title="DRAM auto-refresh on/off under STFM",
        rows=rows,
        text=format_table(
            ["config", "unfairness", "weighted_speedup"], table_rows
        ),
        paper_reference=(
            "Refresh costs ~1.6% of DRAM time (tRFC/tREFI) and should not "
            "change the fairness conclusions."
        ),
    )
