"""Pinned simulation results: digests recorded from a known-good tree.

The naive-vs-event differential suite (``test_event_kernel.py``) cannot
see a change that moves both kernels alike, and the scheduling policies,
the STFM estimator, the controller and the request queues are code the
two kernels share.  This test pins the outcome of a fixed set of
configurations to digests stored in ``pinned_results.json``: every core
snapshot, the final cycle, the controller's per-thread DRAM statistics,
the policy's fairness counters and every thread's ``TInterference``.

A change meant to keep results bit-identical must leave every digest
alone.  A change meant to move results regenerates the file with
``PYTHONPATH=src python tools/pin_results.py`` and says why in its
commit; nothing else writes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.jobs import resolve_spec
from repro.schedulers import make_policy
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.system import CmpSystem

PINNED_FILE = Path(__file__).with_name("pinned_results.json")

#: perfbench's ``kernel`` mix.
KERNEL_MIX = ("mcf", "libquantum", "GemsFDTD", "astar")
#: fig1's 8-core mix (two channels at 8 cores).
EIGHT_CORE_MIX = (
    "mcf", "hmmer", "GemsFDTD", "libquantum",
    "omnetpp", "astar", "sphinx3", "dealII",
)
BUDGET = 3_000

POLICIES = (
    "fr-fcfs",
    "fcfs",
    "fr-fcfs+cap",
    "nfq",
    "stfm",
    "par-bs",
    "bliss",
    "mise-stfm",
    "staged",
)

#: name -> (mix, policy, policy kwargs, SystemConfig overrides, seed).
CASES: dict[str, tuple] = {
    **{
        f"kernel/{policy}/seed{seed}": (KERNEL_MIX, policy, {}, {}, seed)
        for policy in POLICIES
        for seed in (0, 1)
    },
    "kernel/stfm-ready-basis": (
        KERNEL_MIX, "stfm", {"interference_basis": "ready"}, {}, 0,
    ),
    "8core-2ch/stfm": (EIGHT_CORE_MIX, "stfm", {}, {}, 0),
    "closed-page-refresh/stfm": (
        KERNEL_MIX, "stfm", {},
        {"page_policy": "closed", "refresh_enabled": True}, 0,
    ),
    "write-capacity-8/stfm": (KERNEL_MIX, "stfm", {}, {"write_capacity": 8}, 0),
    # Per-bank policy state keyed by channel shows only with two channels.
    "8core-2ch/nfq": (EIGHT_CORE_MIX, "nfq", {}, {}, 0),
    "8core-2ch/fr-fcfs+cap": (EIGHT_CORE_MIX, "fr-fcfs+cap", {}, {}, 0),
    # FR-FCFS+Cap's bypass count across closed-page auto-precharges.
    "closed-page-refresh/fr-fcfs+cap": (
        KERNEL_MIX, "fr-fcfs+cap", {},
        {"page_policy": "closed", "refresh_enabled": True}, 0,
    ),
    # The ready basis in frequent write drains and over two channels.
    "write-capacity-8/stfm-ready-basis": (
        KERNEL_MIX, "stfm", {"interference_basis": "ready"},
        {"write_capacity": 8}, 0,
    ),
    "8core-2ch/stfm-ready-basis": (
        EIGHT_CORE_MIX, "stfm", {"interference_basis": "ready"}, {}, 0,
    ),
    # Weighted decisions: scaled slowdowns, and a zero weight that
    # pins its thread's slowdown at 1.
    "kernel/stfm-weighted": (
        KERNEL_MIX, "stfm", {"weights": [1, 4, 0.5, 0]}, {}, 0,
    ),
    # Interval resets that fire inside the run.
    "kernel/stfm-short-interval": (
        KERNEL_MIX, "stfm", {"interval_length": 1 << 12}, {}, 0,
    ),
}


def _policy_counters(policy) -> dict:
    """The policy's decision counters and estimator registers."""
    names = (
        "fairness_cycles",
        "total_cycles",
        "last_unfairness",
        "max_slowdown_thread",
        "blacklist_events",
        "clears",
        "reclassifications",
        "batches_formed",
    )
    counters = {n: getattr(policy, n) for n in names if hasattr(policy, n)}
    registers = getattr(policy, "registers", None)
    if registers is not None:
        counters["t_interference"] = [
            thread.t_interference for thread in registers.threads
        ]
    return counters


def simulate(case: str) -> dict:
    """Run one pinned configuration and return its fingerprint."""
    mix, policy_name, policy_kwargs, overrides, seed = CASES[case]
    config = SystemConfig(num_cores=len(mix), **overrides)
    runner = ExperimentRunner(config, instruction_budget=BUDGET, seed=seed)
    specs = [resolve_spec(name) for name in mix]
    traces = [runner.trace_for(s, i, len(specs)) for i, s in enumerate(specs)]
    policy = make_policy(policy_name, num_threads=len(specs), **policy_kwargs)
    system = CmpSystem(
        config, traces, policy, [runner.budget_for(s) for s in specs],
        mlp_limits=[s.mlp for s in specs],
    )
    snapshots = system.run()
    controller = system.controller
    return {
        "snapshots": [repr(snapshot) for snapshot in snapshots],
        "now": system.now,
        "commands_issued": controller.commands_issued,
        "thread_stats": [repr(stats) for stats in controller.thread_stats],
        "policy": repr(_policy_counters(policy)),
    }


def digest(case: str) -> str:
    """SHA-256 of the case's fingerprint (floats by exact ``repr``)."""
    blob = json.dumps(simulate(case), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_pinned() -> dict[str, str]:
    return json.loads(PINNED_FILE.read_text())


def test_every_case_is_pinned():
    assert sorted(load_pinned()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_matches_pinned_digest(case):
    assert digest(case) == load_pinned()[case], (
        f"{case}: results moved; if that is intended, rerun "
        "tools/pin_results.py and say why in the commit"
    )
