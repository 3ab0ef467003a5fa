"""Registry mapping experiment ids to their declarations.

Each value is an :class:`~repro.experiments.base.Experiment`: calling
it runs the experiment, and it carries the paper's values and shapes.
"""

from __future__ import annotations

from repro.experiments import (
    ablations,
    attack,
    extension_parbs,
    fig01,
    fig03,
    fig05,
    fig14,
    fig15,
    table3,
    table5,
)
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.comparisons import COMPARISONS

EXPERIMENTS: dict[str, Experiment] = {
    "fig1": fig01.EXPERIMENT,
    "fig3": fig03.EXPERIMENT,
    "fig5": fig05.EXPERIMENT,
    # Figures 6-13: the five schedulers on case studies and sweeps.
    **COMPARISONS,
    "fig14": fig14.EXPERIMENT,
    "fig15": fig15.EXPERIMENT,
    "table3": Experiment(table3.run),
    "table5": table5.EXPERIMENT,
    # Ablations beyond the paper's printed figures (see ablations.py).
    "ablate-gamma": Experiment(ablations.run_gamma),
    "ablate-interval": Experiment(ablations.run_interval),
    "ablate-estimator": Experiment(ablations.run_estimator_basis),
    "ablate-cap": Experiment(ablations.run_cap),
    "ablate-page-policy": Experiment(ablations.run_page_policy),
    "ablate-refresh": Experiment(ablations.run_refresh),
    # The denial-of-memory-service scenario of the paper's reference [20].
    "attack": attack.EXPERIMENT,
    # Head-to-head with the successor scheduler (ISCA 2008).
    "extension-parbs": Experiment(extension_parbs.run),
}


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id.lower()]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(EXPERIMENTS)}"
        ) from None


def run_experiment(experiment_id: str, scale="small") -> ExperimentResult:
    """Run one experiment by id at the given scale."""
    return get_experiment(experiment_id)(scale=scale)
