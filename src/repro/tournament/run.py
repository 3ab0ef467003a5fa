"""Tournament execution: one engine batch, per-cell metrics, frontier.

The whole policies × workloads cross product runs as a single engine
batch (:meth:`repro.sim.runner.ExperimentRunner.run_sweep`): alone
baselines shared between cells are simulated once, cells parallelize
across the worker pool when the ambient engine options request it, and
every cell is content-addressed — a warm rerun against a persistent
store performs zero new simulations.  Serial and parallel execution are
bit-identical, inherited from the engine's determinism guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.options import EngineOptions, current_options
from repro.metrics.stats import geometric_mean
from repro.sim.config import SystemConfig
from repro.sim.results import format_table
from repro.sim.runner import ExperimentRunner
from repro.tournament.frontier import frontier_chart, pareto_frontier
from repro.tournament.spec import TournamentSpec


@dataclass
class TournamentResult:
    """Everything a tournament produced, ready for JSON or the terminal."""

    spec: TournamentSpec
    cells: list[dict]
    aggregates: list[dict]
    frontier: list[str]
    text: str

    def to_payload(self) -> dict:
        """JSON-ready payload (the ``--json`` artifact)."""
        return {
            "kind": "tournament",
            "spec_digest": self.spec.digest(),
            "policies": [p.lower() for p in self.spec.policies],
            "workloads": self.spec.labels,
            "num_cores": self.spec.num_cores,
            "budget": self.spec.budget,
            "seed": self.spec.seed,
            "cells": self.cells,
            "aggregates": self.aggregates,
            "frontier": self.frontier,
        }


def run_tournament(
    spec: TournamentSpec,
    engine: "EngineOptions | None" = None,
) -> TournamentResult:
    """Run every (workload, policy) cell and aggregate the results.

    Engine options come from the argument or the ambient
    :func:`repro.engine.options.engine_options` context, exactly like
    the experiment harness.
    """
    options = engine if engine is not None else current_options()
    config = SystemConfig(num_cores=spec.num_cores)
    runner = ExperimentRunner(
        config,
        instruction_budget=spec.budget,
        seed=spec.seed,
        jobs=options.jobs,
        store=options.store,
        timeout=options.timeout,
        retries=options.retries,
    )
    policies = [p.lower() for p in spec.policies]
    policy_kwargs = {
        policy: spec.kwargs_for(policy)
        for policy in policies
        if spec.kwargs_for(policy)
    }
    sweep = runner.run_sweep(
        [list(w) for w in spec.workloads], policies, policy_kwargs or None
    )

    cells = []
    for workload, label in zip(spec.workloads, spec.labels):
        for policy in policies:
            result = sweep[label][policy]
            cells.append(
                {
                    "key": spec.cell_key(workload, policy),
                    "workload": label,
                    "policy": policy,
                    "unfairness": result.unfairness,
                    "weighted_speedup": result.weighted_speedup,
                    "hmean_speedup": result.hmean_speedup,
                    "sum_of_ipcs": result.sum_of_ipcs,
                    "slowdowns": {
                        t.name: t.slowdown for t in result.threads
                    },
                }
            )

    aggregates = []
    for policy in policies:
        results = [sweep[label][policy] for label in spec.labels]
        aggregates.append(
            {
                "policy": policy,
                "unfairness": geometric_mean(
                    [r.unfairness for r in results]
                ),
                "max_unfairness": max(r.unfairness for r in results),
                "weighted_speedup": geometric_mean(
                    [r.weighted_speedup for r in results]
                ),
                "hmean_speedup": geometric_mean(
                    [r.hmean_speedup for r in results]
                ),
                "sum_of_ipcs": geometric_mean(
                    [max(r.sum_of_ipcs, 1e-9) for r in results]
                ),
            }
        )

    frontier = pareto_frontier(aggregates)
    text = _render(spec, aggregates, frontier)
    return TournamentResult(
        spec=spec,
        cells=cells,
        aggregates=aggregates,
        frontier=frontier,
        text=text,
    )


def _render(
    spec: TournamentSpec,
    aggregates: "list[dict]",
    frontier: "list[str]",
) -> str:
    """The Table-5-style summary plus the frontier scatter chart."""
    frontier_set = set(frontier)
    table = format_table(
        [
            "policy",
            "GMEAN-unfairness",
            "max-unfairness",
            "GMEAN-w-speedup",
            "GMEAN-hmean",
            "frontier",
        ],
        [
            [
                row["policy"],
                row["unfairness"],
                row["max_unfairness"],
                row["weighted_speedup"],
                row["hmean_speedup"],
                "*" if row["policy"] in frontier_set else "",
            ]
            for row in aggregates
        ],
    )
    chart = frontier_chart(aggregates)
    return (
        f"tournament: {len(spec.policies)} policies x "
        f"{len(spec.workloads)} workloads "
        f"({spec.num_cores} cores, budget {spec.budget}, "
        f"seed {spec.seed})\n\n{table}\n\n{chart}"
    )
