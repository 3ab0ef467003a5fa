#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a results JSON.

Usage::

    python tools/make_experiments_md.py results.json [scale-label]
"""

import sys

from repro.analysis.report import generate_report
from repro.experiments.io import load_results

PREAMBLE = """\
## Methodology

Produced with `stfm-sim run all --scale {scale} --json {source}` on the
pure-Python simulator in this repository.  Workloads are synthetic
traces matching the paper's per-benchmark statistics (Table 3/4);
per-thread instruction budgets are ~10^3 smaller than the paper's
100M-instruction SimPoints (see DESIGN.md, substitutions 1-3).

**How to read the comparisons.**  Absolute slowdowns are compressed
relative to the paper — our FR-FCFS baseline starves victims less than
the authors' simulator did, chiefly because the synthetic workloads
cannot fully reproduce SPEC programs' pathological row-buffer streaks
and because short runs blunt queue build-up.  The *shapes* are the
reproduction target: who wins, which threads each scheduler victimizes,
pairwise policy orderings, and parameter trends.  Each section below
reports those checks explicitly.

**Headline**: STFM is the fairest scheduler in every case study and
in the 4- and 8-core sweeps, while matching or improving weighted
speedup.  Three of the paper's shapes are missed at this reduced
scale: at 16 cores FCFS edges STFM's GMEAN unfairness by ~5% (1.66 vs
1.74, fig12); with weights 1-4-8-1, NFQ's shares keep the equal-weight
threads fairer than STFM's weights (1.14 vs 1.50), so fig14's shape
reads **no**; and unfairness against alpha is **mixed**, not
increasing (fig15).  STFM's own GMEAN unfairness lies near the paper's
(4-core 1.19 vs 1.24, 8-core 1.36 vs 1.40, 16-core 1.74 vs 1.75), but
the baselines' lie far below the paper's (4-core FR-FCFS 2.00 vs 5.31),
so STFM's lead over them is much narrower than in the paper.  The
paper's qualitative mechanisms reproduce: FR-FCFS's
row-buffer/intensity bias, NFQ's idleness and access-balance
pathologies, Table 5's bank/row-buffer trends, and the ~3x FR-FCFS
attack amplification that STFM contains.
"""


def main() -> int:
    source = sys.argv[1] if len(sys.argv) > 1 else "results_small.json"
    scale = sys.argv[2] if len(sys.argv) > 2 else "small"
    results = load_results(source)
    report = generate_report(
        results, preamble=PREAMBLE.format(scale=scale, source=source)
    )
    with open("EXPERIMENTS.md", "w") as handle:
        handle.write(report)
    print(f"wrote EXPERIMENTS.md from {source} ({len(results)} experiments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
