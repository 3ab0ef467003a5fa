"""Figure 3 (qualitative): NFQ's idleness problem, reproduced.

The paper's Figure 3 is a thought experiment: one thread issues memory
requests continuously while three others are bursty with idle periods.
Under NFQ, the bursty threads return from idleness with small virtual
finish times and capture the DRAM, starving the continuous thread; STFM
recognizes that nobody has been slowed down and treats them equally.

We reproduce it with four synthetic threads built from an identical base
benchmark, differing only in burstiness — so any slowdown asymmetry is
attributable to the scheduler, not the workloads.
"""

from __future__ import annotations

from repro.analysis.compare import below
from repro.experiments.base import Experiment, ExperimentResult, resolve_scale
from repro.experiments.common import make_runner
from repro.sim.results import format_table
from repro.workloads.spec2006 import BenchmarkSpec


def _continuous_spec() -> BenchmarkSpec:
    """Thread 1 of Figure 3: continuously issues memory requests."""
    return BenchmarkSpec(
        name="continuous",
        itype="SYN",
        mcpi=5.0,
        mpki=40.0,
        rb_hit_rate=0.4,
        category=3,
        burstiness=0.0,
        burst_len=6,
        dependence=0.0,
        mlp=8,
    )


def _bursty_spec(name: str) -> BenchmarkSpec:
    """Threads 2-4: bursts separated by idle periods, phase-staggered.

    Bursts are kept shallow (they drain without self-queueing) so the
    measured slowdown reflects cross-thread scheduling, not a thread
    waiting on its own backlog.
    """
    return BenchmarkSpec(
        name=name,
        itype="SYN",
        mcpi=2.0,
        mpki=12.0,
        rb_hit_rate=0.4,
        category=0,
        burstiness=0.95,
        burst_len=10,
        dependence=0.0,
        mlp=6,
        periodic_bursts=True,
    )


#: The row fields the table shows, in column order.
_TABLE_KEYS = ("policy", "continuous_slowdown", "mean_bursty_slowdown", "unfairness")


def run(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    runner = make_runner(4, scale)
    threads = [
        _continuous_spec(),
        _bursty_spec("bursty-1"),
        _bursty_spec("bursty-2"),
        _bursty_spec("bursty-3"),
    ]
    rows = []
    for policy in ("fr-fcfs", "nfq", "stfm"):
        result = runner.run_workload(threads, policy=policy)
        slowdowns = {t.name: t.slowdown for t in result.threads}
        bursty = [s for n, s in slowdowns.items() if n.startswith("bursty")]
        rows.append(
            {
                "policy": result.policy,
                "continuous_slowdown": slowdowns["continuous"],
                "mean_bursty_slowdown": sum(bursty) / len(bursty),
                "unfairness": result.unfairness,
            }
        )
    text = format_table(
        list(_TABLE_KEYS), [[row[key] for key in _TABLE_KEYS] for row in rows]
    )
    return ExperimentResult(
        experiment_id="fig3",
        title="NFQ idleness problem: continuous vs bursty threads",
        rows=rows,
        text=text,
        paper_reference=(
            "Paper (qualitative): NFQ starves the continuous thread when "
            "bursty threads return from idleness; STFM treats them equally."
        ),
    )


def _nfq_penalizes_continuous(rows: list[dict]):
    """The idleness problem: NFQ slows the continuous thread the most."""
    nfq = next(row for row in rows if row["policy"] == "NFQ")
    return below(nfq["mean_bursty_slowdown"], nfq["continuous_slowdown"])


def _stfm_fairer_than_nfq(rows: list[dict]):
    unfairness = {row["policy"]: row["unfairness"] for row in rows}
    return below(unfairness["STFM"], unfairness["NFQ"])


EXPERIMENT = Experiment(
    run,
    shapes={
        "nfq_penalizes_continuous": _nfq_penalizes_continuous,
        "stfm_fairer_than_nfq": _stfm_fairer_than_nfq,
    },
)
