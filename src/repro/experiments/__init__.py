"""Experiment harness: one declaration per figure/table of the evaluation.

The registry maps experiment ids (``fig1`` ... ``fig15``, ``table3``,
``table5``, ablations and extensions) to
:class:`~repro.experiments.base.Experiment` declarations: a
``run(scale) -> ExperimentResult`` entry point (calling the declaration
runs it), the values the paper reports, and the paper's shapes as named
predicates over the result rows.  Figures 6-13 share one table in
:mod:`repro.experiments.comparisons`.  Use the CLI::

    python -m repro.cli run fig6 --scale small

or ``benchmarks/bench_experiments.py`` to regenerate a paper
figure/table.  Scales control instruction budgets and sweep sample
counts (see :data:`repro.experiments.base.SCALES`).
"""

from repro.experiments.base import Experiment, ExperimentResult, Scale, SCALES


def __getattr__(name: str):
    # The registry imports every experiment module, so it loads on first
    # use: a process that needs only ``base`` (``SCALES``) skips it.
    if name in ("EXPERIMENTS", "get_experiment", "run_experiment"):
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "SCALES",
    "Scale",
    "get_experiment",
    "run_experiment",
]
