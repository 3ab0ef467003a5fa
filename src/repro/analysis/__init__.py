"""Result analysis and the simulator correctness-analysis layer.

Result analysis (paper vs. measurement):

* :mod:`repro.analysis.compare` — the verdicts shape predicates
  return: policy orderings, trends, who-wins agreements between paper
  and measurement.  The paper's values and the predicates themselves
  are declared by each experiment (:mod:`repro.experiments`).
* :mod:`repro.analysis.report` — renders the EXPERIMENTS.md
  paper-vs-measured report from a results JSON
  (``stfm-sim run all --json results.json`` then
  ``stfm-sim report results.json``).

Correctness analysis (the simulator's own invariants):

* :mod:`repro.analysis.simlint` — AST-based static lint enforcing the
  determinism/numeric-hygiene invariants (``stfm-sim lint``).
* :mod:`repro.analysis.protocol` — the runtime DRAM protocol sanitizer
  (``--sanitize``): validates every issued command against DDR2 timing
  and raises :class:`ProtocolViolation` with the offending window.

Import the submodules directly.  The package itself imports nothing, so
the simulator's sanitizer hook (:mod:`repro.analysis.protocol`) does not
load the lint or the report generator.
"""
