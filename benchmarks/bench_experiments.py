"""Regenerate every registered figure, table, ablation and extension
via pytest-benchmark::

    pytest benchmarks/bench_experiments.py --benchmark-only

One benchmark per experiment id, at the scale :data:`BENCH_SCALES`
gives it.  The benchmark clock measures the end-to-end experiment
(workload generation, alone baselines, shared runs under every
scheduler); the paper reference is attached as ``extra_info`` and the
formatted tables are printed, so the run doubles as the reproduction
log for EXPERIMENTS.md.  Each experiment's expected shapes are its
declared predicates (DESIGN.md §4).
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.base import Scale

_FIGURE = Scale(budget=20_000, samples=1)
_ABLATION = Scale(budget=12_000, samples=1)

#: The scale each experiment regenerates at.
BENCH_SCALES = {
    "fig1": Scale(budget=20_000, samples=2),
    "fig3": _FIGURE,
    "fig5": Scale(budget=12_000, samples=6),
    "fig6": _FIGURE,
    "fig7": _FIGURE,
    "fig8": _FIGURE,
    "fig9": Scale(budget=12_000, samples=6),
    "fig10": _FIGURE,
    "fig11": Scale(budget=10_000, samples=5),
    "fig12": Scale(budget=10_000, samples=3),
    "fig13": _FIGURE,
    "fig14": _FIGURE,
    "fig15": _FIGURE,
    "table3": Scale(budget=30_000, samples=1),
    "table5": Scale(budget=10_000, samples=3),
    "ablate-gamma": _ABLATION,
    "ablate-interval": _ABLATION,
    "ablate-estimator": _ABLATION,
    "ablate-cap": _ABLATION,
    "ablate-page-policy": _ABLATION,
    "ablate-refresh": _ABLATION,
    "attack": _FIGURE,
    "extension-parbs": Scale(budget=15_000, samples=1),
}

if set(BENCH_SCALES) != set(EXPERIMENTS):
    raise RuntimeError(
        "BENCH_SCALES must name exactly the registered experiments; "
        f"missing {sorted(set(EXPERIMENTS) - set(BENCH_SCALES))}, "
        f"unknown {sorted(set(BENCH_SCALES) - set(EXPERIMENTS))}"
    )


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_regenerate(benchmark, capsys, experiment_id):
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"scale": BENCH_SCALES[experiment_id]},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["experiment"] = result.experiment_id
    benchmark.extra_info["paper_reference"] = result.paper_reference
    with capsys.disabled():
        print(f"\n== {result.experiment_id}: {result.title} ==")
        print(result.text)
        if result.paper_reference:
            print(f"[{result.paper_reference}]")
    assert result.rows, "experiment produced no rows"
