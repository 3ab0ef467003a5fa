"""Memory performance attack (Moscibroda & Mutlu, USENIX Security'07).

The paper's second motivation (Section 1, reference [20]): a malicious
program can deny DRAM service to co-runners by exploiting a
thread-unaware scheduler — stream through memory with perfect row-buffer
locality and high intensity, and FR-FCFS will serve you first, always.

We synthesize such an attacker (a libquantum-on-steroids stream) and run
it against a regular victim under each scheduler.  A fair scheduler
bounds the damage: the victim's slowdown under attack stays close to its
slowdown next to a benign co-runner.
"""

from __future__ import annotations

from repro.analysis.compare import below
from repro.experiments.base import Experiment, ExperimentResult, resolve_scale
from repro.experiments.common import ALL_POLICIES, make_runner
from repro.sim.results import format_table
from repro.workloads.spec2006 import BenchmarkSpec

ATTACKER = BenchmarkSpec(
    name="attacker",
    itype="SYN",
    mcpi=9.0,
    mpki=80.0,
    rb_hit_rate=0.99,
    category=3,
    burstiness=0.0,
    burst_len=32,
    dependence=0.0,
    mlp=12,
    write_fraction=0.0,
    streaming=True,
)

#: A benign co-runner with the same intensity but ordinary locality,
#: used as the no-attack reference point.
BENIGN = BenchmarkSpec(
    name="benign",
    itype="SYN",
    mcpi=5.0,
    mpki=25.0,
    rb_hit_rate=0.45,
    category=3,
    burstiness=0.3,
    burst_len=6,
    dependence=0.1,
    mlp=4,
)

VICTIM = "omnetpp"


def run(scale="small") -> ExperimentResult:
    scale = resolve_scale(scale)
    runner = make_runner(2, scale)
    rows = []
    for policy in ALL_POLICIES:
        attacked = runner.run_workload([ATTACKER, VICTIM], policy)
        baseline = runner.run_workload([BENIGN, VICTIM], policy)
        victim_attacked = attacked.threads[1].slowdown
        victim_baseline = baseline.threads[1].slowdown
        rows.append(
            {
                "policy": attacked.policy,
                "victim_slowdown_attacked": victim_attacked,
                "victim_slowdown_benign": victim_baseline,
                "attack_amplification": victim_attacked / victim_baseline,
                "attacker_slowdown": attacked.threads[0].slowdown,
            }
        )
    text = format_table(
        [
            "policy",
            "victim vs benign",
            "victim vs attacker",
            "amplification",
            "attacker slowdown",
        ],
        [
            [row[key] for key in (
                "policy", "victim_slowdown_benign", "victim_slowdown_attacked",
                "attack_amplification", "attacker_slowdown",
            )]
            for row in rows
        ],
    )
    return ExperimentResult(
        experiment_id="attack",
        title="Memory performance attack: streaming attacker vs victim",
        rows=rows,
        text=text,
        paper_reference=(
            "Reference [20]: FR-FCFS lets a high-locality stream deny "
            "service; a stall-time fair scheduler bounds the amplification."
        ),
    )


def _stfm_contains_attack(rows: list[dict]):
    """STFM's amplification is less than half of FR-FCFS's."""
    amplification = {row["policy"]: row["attack_amplification"] for row in rows}
    return below(amplification["STFM"], 0.5 * amplification["FR-FCFS"])


EXPERIMENT = Experiment(run, shapes={"stfm_contains_attack": _stfm_contains_attack})
