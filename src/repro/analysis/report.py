"""EXPERIMENTS.md generation: paper-vs-measured for every experiment.

``generate_report`` consumes the structured results produced by
``stfm-sim run all --json results.json`` and renders a markdown report
with, per figure/table: the paper's reference numbers, the measured
numbers, and the verdicts of the experiment's shapes.  The paper's
values and the shapes are declared by each experiment
(:class:`repro.experiments.base.Experiment`); this module only renders
them.
"""

from __future__ import annotations

from repro.experiments import EXPERIMENTS
from repro.experiments.comparisons import unfairness
from repro.experiments.table5 import point_label


def _fmt(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _yes(verdict) -> str:
    return f"**{'yes' if verdict.holds else 'no'}**"


def _spread(values: dict) -> float:
    """max/min over the values present (the unfairness-style spread)."""
    present = [v for v in values.values() if v is not None]
    return max(present) / min(present)


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    return [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
        *("| " + " | ".join(cells) + " |" for cells in rows),
    ]


def _section(result: dict, table: list[str], bullets: list[str]) -> list[str]:
    lines = [f"### {result['experiment_id']}: {result['title']}", ""]
    if table:
        lines += table + [""]
    return lines + [f"- {bullet}" for bullet in bullets] + [""]


def _unfairness_section(result: dict, experiment, verdicts: dict) -> list[str]:
    paper = experiment.paper
    measured = unfairness(result["rows"])
    check = verdicts["orders_like_paper"]
    bullets = [
        f"STFM fairest: {_yes(verdicts['stfm_fairest'])}",
        f"pairwise ordering agreement with the paper: **{check}**",
        f"unfairness spread (worst/best scheduler): paper "
        f"{_fmt(_spread(paper))}, measured {_fmt(_spread(measured))}",
    ]
    if check.disagreements:
        pairs = ", ".join(f"{a} vs {b}" for a, b in check.disagreements)
        bullets.append(f"disagreeing pairs: {pairs}")
    table = _table(
        ["scheduler", "paper unfairness", "measured"],
        [[p, _fmt(v), _fmt(measured.get(p))] for p, v in paper.items()],
    )
    return _section(result, table, bullets)


def _fig1_section(result: dict, experiment, verdicts: dict) -> list[str]:
    bullets = []
    for cores, paper in experiment.paper.items():
        slowdowns = {
            r["benchmark"]: r["memory_slowdown"]
            for r in result["rows"] if r["cores"] == cores
        }
        most = max(slowdowns, key=slowdowns.get)
        least = min(slowdowns, key=slowdowns.get)
        verdict = verdicts[f"libquantum_least_slowed_{cores}core"]
        bullets.append(
            f"{cores}-core: paper {paper['most_slowed'][0]} "
            f"{paper['most_slowed'][1]:.2f}x vs {paper['least_slowed'][0]} "
            f"{paper['least_slowed'][1]:.2f}x; measured {most} "
            f"{slowdowns[most]:.2f}x vs {least} {slowdowns[least]:.2f}x "
            f"(libquantum least-slowed: {_yes(verdict)})"
        )
    return _section(result, [], bullets)


def _fig5_section(result: dict, experiment, verdicts: dict) -> list[str]:
    summary = next(r for r in result["rows"] if r.get("partner") == "GMEAN")
    paper = experiment.paper
    table = _table(["metric", "paper", "measured"], [
        ["GMEAN unfairness FR-FCFS", f"{paper['frfcfs_gmean_unfairness']:.2f}",
         f"{summary['frfcfs_unfairness']:.2f}"],
        ["GMEAN unfairness STFM", f"{paper['stfm_gmean_unfairness']:.2f}",
         f"{summary['stfm_unfairness']:.2f}"],
        ["max STFM unfairness", f"{paper['stfm_max_unfairness']:.2f}",
         f"{summary['stfm_max_unfairness']:.2f}"],
        ["weighted-speedup gain", f"x{paper['weighted_speedup_gain']:.3f}",
         f"x{summary['ws_gain']:.3f}"],
    ])
    return _section(result, table, [
        "STFM reduces pairwise unfairness: "
        f"{_yes(verdicts['stfm_reduces_unfairness'])}"
    ])


def _fig14_section(result: dict, experiment, verdicts: dict) -> list[str]:
    table = _table(["weights", "scheme", "paper", "measured"], [
        [
            "-".join(str(int(w)) for w in row["weights"]),
            row["scheme"],
            _fmt(experiment.paper.get(tuple(row["weights"]), {}).get(row["scheme"])),
            f"{row['equal_priority_unfairness']:.2f}",
        ]
        for row in result["rows"]
    ])
    return _section(result, table, [
        "STFM keeps equal-weight threads fairer than NFQ shares: "
        f"{_yes(verdicts['stfm_keeps_equal_weights_fairer'])}"
    ])


def _fig15_section(result: dict, experiment, verdicts: dict) -> list[str]:
    table = _table(["alpha", "unfairness", "weighted speedup"], [
        [
            str(row["alpha"]) if row["alpha"] is not None else "FR-FCFS",
            f"{row['unfairness']:.2f}",
            f"{row['weighted_speedup']:.2f}",
        ]
        for row in result["rows"]
    ])
    return _section(result, table, [
        "unfairness vs alpha: "
        f"**{verdicts['unfairness_rises_with_alpha'].direction}** "
        "(paper: increasing)",
        "alpha=20 converges toward FR-FCFS: "
        f"{_yes(verdicts['large_alpha_converges_to_frfcfs'])}",
    ])


def _table5_section(result: dict, experiment, verdicts: dict) -> list[str]:
    rows = []
    for row in result["rows"]:
        paper = experiment.paper.get((row["axis"], row["value"]), {})
        rows.append([
            point_label(row["axis"], row["value"]),
            f"{_fmt(paper.get('frfcfs_unfairness'))} / "
            f"{_fmt(paper.get('stfm_unfairness'))}",
            f"{row['frfcfs_unfairness']:.2f} / {row['stfm_unfairness']:.2f}",
        ])
    table = _table(
        ["config", "paper FR-FCFS/STFM unfairness", "measured FR-FCFS/STFM"],
        rows,
    )
    stfm = [row["stfm_unfairness"] for row in result["rows"]]
    paper_stfm = [p["stfm_unfairness"] for p in experiment.paper.values()]
    return _section(result, table, [
        "FR-FCFS unfairness vs bank count: "
        f"**{verdicts['frfcfs_falls_with_banks'].direction}** "
        "(paper: decreasing)",
        "FR-FCFS unfairness vs row-buffer size: "
        f"**{verdicts['frfcfs_rises_with_row_buffer'].direction}** "
        "(paper: increasing)",
        "STFM unfairness flat across all six configs: "
        f"{_yes(verdicts['stfm_flat'])} "
        f"(range {min(stfm):.2f}-{max(stfm):.2f}; "
        f"paper {min(paper_stfm):.2f}-{max(paper_stfm):.2f})",
    ])


def _fig3_section(result: dict, experiment, verdicts: dict) -> list[str]:
    table = _table(["policy", "continuous", "mean bursty", "unfairness"], [
        [row["policy"]] + [
            f"{row[key]:.2f}" for key in
            ("continuous_slowdown", "mean_bursty_slowdown", "unfairness")
        ]
        for row in result["rows"]
    ])
    return _section(result, table, [
        "NFQ penalizes the continuous thread: "
        f"{_yes(verdicts['nfq_penalizes_continuous'])} (the idleness problem)",
        f"STFM fairer than NFQ here: {_yes(verdicts['stfm_fairer_than_nfq'])}",
    ])


def _attack_section(result: dict, experiment, verdicts: dict) -> list[str]:
    table = _table(
        ["policy", "victim slowdown under attack", "amplification"],
        [
            [row["policy"], f"{row['victim_slowdown_attacked']:.2f}",
             f"x{row['attack_amplification']:.2f}"]
            for row in result["rows"]
        ],
    )
    return _section(result, table, [
        "STFM contains the attack (amplification less than half of "
        f"FR-FCFS's): {_yes(verdicts['stfm_contains_attack'])}"
    ])


def _generic_section(result: dict) -> list[str]:
    lines = [f"### {result['experiment_id']}: {result['title']}", ""]
    if result.get("paper_reference"):
        lines += [f"_{result['paper_reference']}_", ""]
    rows = result["rows"]
    if rows:
        keys = [k for k in rows[0] if not isinstance(rows[0][k], (list, dict))]
        lines += _table(keys, [[_fmt(row.get(k)) for k in keys] for row in rows])
    return lines + [""]


#: The experiments compared against the paper, in report order (case
#: studies before sweeps); the rest follow with a generic table.
_SECTIONS = {
    "fig1": _fig1_section,
    "fig3": _fig3_section,
    "fig5": _fig5_section,
    **dict.fromkeys(
        ("fig6", "fig7", "fig8", "fig10", "fig13", "fig9", "fig11", "fig12"),
        _unfairness_section,
    ),
    "fig14": _fig14_section,
    "fig15": _fig15_section,
    "table5": _table5_section,
    "attack": _attack_section,
}


def generate_report(results: list[dict], preamble: str = "") -> str:
    """Render the full paper-vs-measured markdown report."""
    by_id = {result["experiment_id"]: result for result in results}
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `stfm-sim report` from a "
        "`stfm-sim run all --json` results file.",
        "",
    ]
    if preamble:
        lines += [preamble, ""]
    for experiment_id, section in _SECTIONS.items():
        if experiment_id in by_id:
            result = by_id[experiment_id]
            experiment = EXPERIMENTS[experiment_id]
            verdicts = experiment.verdicts(result["rows"])
            lines += section(result, experiment, verdicts)
    remaining = [r for r in results if r["experiment_id"] not in _SECTIONS]
    if remaining:
        lines.append("## Calibration, ablations and extensions")
        lines.append("")
        for result in remaining:
            lines += _generic_section(result)
    return "\n".join(lines) + "\n"
