"""Differential tests: event-driven kernel vs the naive reference kernel.

The event-driven kernel (DESIGN.md §3.14) must be *bit-identical* to the
tick-every-DRAM-cycle loop it replaces — not statistically close, the
same numbers.  These tests run randomized workloads through both kernels
(selected via ``STFM_SIM_KERNEL``) across every scheduling policy,
refresh on/off, write-drain pressure, and MLP limits, and compare full
result fingerprints: core snapshots, controller counters, per-thread
memory statistics, per-channel command mixes, and (separately) the exact
command stream the protocol sanitizer observes.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.protocol import ProtocolSanitizer
from repro.engine.jobs import build_trace
from repro.schedulers import make_policy
from repro.sim.config import SystemConfig
from repro.sim.kernel import KERNEL_ENV, kernel_name
from repro.sim.system import CmpSystem
from repro.workloads.spec2006 import BenchmarkSpec

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


def random_spec(rng: random.Random, name: str) -> BenchmarkSpec:
    """A randomized synthetic benchmark exercising the kernel's corners:
    bursty idle gaps, pointer chases, write pressure, streaming rows."""
    return BenchmarkSpec(
        name=name,
        itype="SYN",
        mcpi=rng.uniform(1.0, 6.0),
        mpki=rng.uniform(5.0, 50.0),
        rb_hit_rate=rng.uniform(0.1, 0.9),
        category=rng.randint(0, 3),
        burstiness=rng.choice([0.0, 0.5, 0.95]),
        burst_len=rng.randint(4, 12),
        dependence=rng.choice([0.0, 0.3]),
        mlp=rng.randint(1, 8),
        write_fraction=rng.choice([0.0, 0.3, 0.8]),
        streaming=rng.random() < 0.3,
        periodic_bursts=rng.random() < 0.3,
    )


def simulate(
    monkeypatch,
    kernel: str,
    specs: "list[BenchmarkSpec]",
    policy_name: str,
    budget: int = 2_000,
    seed: int = 0,
    refresh: bool = True,
    mlp_limits: "list[int] | None" = None,
    write_capacity: int = 32,
    policy_kwargs: "dict | None" = None,
) -> dict:
    """Run one workload under ``kernel`` and fingerprint everything."""
    monkeypatch.setenv(KERNEL_ENV, kernel)
    assert kernel_name() == kernel
    config = SystemConfig(
        num_cores=len(specs),
        refresh_enabled=refresh,
        write_capacity=write_capacity,
    )
    traces = [
        build_trace(config, seed, spec, budget, i, len(specs))
        for i, spec in enumerate(specs)
    ]
    policy = make_policy(
        policy_name, num_threads=len(specs), **(policy_kwargs or {})
    )
    system = CmpSystem(
        config, traces, policy, budget, mlp_limits=mlp_limits
    )
    snapshots = system.run()
    controller = system.controller
    fingerprint = {
        "snapshots": snapshots,
        "now": system.now,
        "commands_issued": controller.commands_issued,
        "refreshes_issued": controller.refreshes_issued,
        "channel_commands": [
            dict(channel.commands_issued) for channel in controller.channels
        ],
        "thread_stats": [
            (
                stats.reads_completed,
                stats.writes_completed,
                stats.row_hits,
                stats.row_closed,
                stats.row_conflicts,
                stats.total_read_latency,
            )
            for stats in controller.thread_stats
        ],
        "core_counters": [
            (
                core.committed_instructions,
                core.memory_stall_cycles,
                core.idle_cycles,
                core.reads_issued,
                core.writes_issued,
            )
            for core in system.cores
        ],
    }
    if hasattr(policy, "fairness_rule_fraction"):
        fingerprint["fairness_rule_fraction"] = policy.fairness_rule_fraction
    if hasattr(policy, "registers"):
        registers = policy.registers
        fingerprint["stfm_registers"] = (
            registers.resets,
            registers.interval_counter,
            [
                (t.tshared_offset, t.t_interference, sorted(t.last_row.items()))
                for t in registers.threads
            ],
            policy.fairness_cycles,
            policy.total_cycles,
            policy.max_slowdown_thread,
            policy.last_unfairness,
        )
    return fingerprint


def assert_identical(monkeypatch, specs, policy_name, **kwargs):
    event = simulate(monkeypatch, "event", specs, policy_name, **kwargs)
    naive = simulate(monkeypatch, "naive", specs, policy_name, **kwargs)
    assert event == naive, (
        f"kernels diverged under {policy_name} ({kwargs}):\n"
        f"event: {event}\nnaive: {naive}"
    )


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("seed", [0, 1])
def test_randomized_workloads_bit_identical(monkeypatch, policy_name, seed):
    """The core differential property, across every policy."""
    rng = random.Random(1000 * seed + POLICIES.index(policy_name))
    num_cores = rng.choice([2, 4])
    specs = [random_spec(rng, f"syn-{i}") for i in range(num_cores)]
    assert_identical(
        monkeypatch,
        specs,
        policy_name,
        seed=seed,
        refresh=rng.random() < 0.5,
        mlp_limits=[rng.randint(1, 8) for _ in range(num_cores)],
    )


@pytest.mark.parametrize("policy_name", ["fr-fcfs", "nfq", "stfm"])
def test_bursty_compute_gaps_bit_identical(monkeypatch, policy_name):
    """Regression: fig3-style bursty threads with long pure-compute gaps.

    These exercise the closed-form compute replay
    (:meth:`repro.cpu.core.Core.advance_compute`); an early bulk-step
    implementation diverged here by rounding commit cycles per block.
    """
    bursty = BenchmarkSpec(
        name="bursty",
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
    continuous = BenchmarkSpec(
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
    assert_identical(
        monkeypatch, [continuous, bursty, bursty, bursty], policy_name
    )


def test_write_drain_pressure_bit_identical(monkeypatch):
    """A small write buffer forces frequent drain-mode flips — the
    drain hysteresis must replay identically across jumps."""
    rng = random.Random(7)
    specs = [random_spec(rng, f"wr-{i}") for i in range(2)]
    specs = [
        BenchmarkSpec(
            **{
                **spec.__dict__,
                "write_fraction": 0.8,
                "name": spec.name,
            }
        )
        for spec in specs
    ]
    for policy_name in ("fr-fcfs", "stfm"):
        assert_identical(
            monkeypatch, specs, policy_name, write_capacity=8
        )


def test_single_core_mlp_one_bit_identical(monkeypatch):
    """Serialized pointer chases (MLP 1) keep the window in lockstep
    with the in-service heap; the floor/ceil alignment of heap bounds
    must not drift."""
    rng = random.Random(11)
    spec = random_spec(rng, "chase")
    spec = BenchmarkSpec(
        **{**spec.__dict__, "dependence": 0.3, "mlp": 1, "name": "chase"}
    )
    assert_identical(monkeypatch, [spec], "fr-fcfs", mlp_limits=[1])


@pytest.mark.parametrize("policy_name", ["staged", "bliss", "mise-stfm", "stfm"])
def test_streaming_agent_mix_bit_identical(monkeypatch, policy_name):
    """A GPU-like streaming agent next to CPU threads: the agent's long
    bursts and high MLP stress the inert-window bounds, and the staged
    policy's online classification must replay identically."""
    from repro.workloads.streaming import STREAMING_AGENTS

    rng = random.Random(23)
    specs = [
        STREAMING_AGENTS["gpu-stream"],
        random_spec(rng, "cpu-0"),
        random_spec(rng, "cpu-1"),
    ]
    assert_identical(monkeypatch, specs, policy_name, budget=3_000)


@pytest.mark.parametrize(
    "policy_kwargs",
    [
        # The literal ready basis: the issue-time scan's ready sets.
        {"interference_basis": "ready"},
        # A short interval: register resets land in live ticks and
        # inside replayed inert windows.
        {"interval_length": 1 << 12},
        # Non-unit weights, some equal: ties on the weighted maximum
        # exercise the larger-thread-id tie-break.
        {"weights": [1.0, 4.0, 4.0, 0.0]},
        {"interference_basis": "ready", "interval_length": 1 << 12,
         "weights": [2.0, 0.5, 2.0, 1.0], "gamma": 0.5, "alpha": 1.02},
    ],
    ids=["ready-basis", "short-interval", "weights", "combined"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_stfm_non_default_paths_bit_identical(monkeypatch, policy_kwargs, seed):
    """STFM's non-default arguments take code paths the default-built
    policy never reaches; each must match the naive kernel, registers
    included."""
    rng = random.Random(5000 + seed)
    specs = [random_spec(rng, f"opt-{i}") for i in range(4)]
    assert_identical(
        monkeypatch,
        specs,
        "stfm",
        seed=seed,
        refresh=seed == 1,
        mlp_limits=[rng.randint(1, 8) for _ in range(4)],
        policy_kwargs=policy_kwargs,
    )


def test_short_interval_resets_in_live_and_replayed_ticks(monkeypatch):
    """The short-interval case really does reset inside replayed
    windows as well as on live ticks (so the differential test above
    covers both)."""
    from repro.core.stfm import StfmPolicy

    rng = random.Random(5000)
    specs = [random_spec(rng, f"opt-{i}") for i in range(4)]
    resets = {"live": 0, "replayed": 0}
    original_ff = StfmPolicy.fast_forward
    original_begin = StfmPolicy.begin_cycle

    def counting(kind, original):
        def wrapper(self, *args):
            before = self.registers.resets
            original(self, *args)
            resets[kind] += self.registers.resets - before
        return wrapper

    monkeypatch.setattr(StfmPolicy, "fast_forward", counting("replayed", original_ff))
    monkeypatch.setattr(StfmPolicy, "begin_cycle", counting("live", original_begin))
    simulate(
        monkeypatch, "event", specs, "stfm",
        policy_kwargs={"interval_length": 1 << 12},
    )
    assert resets["live"] > 0
    assert resets["replayed"] > 0


class RecordingSanitizer(ProtocolSanitizer):
    """Sanitizer that additionally keeps the *unbounded* command stream
    (the base class only keeps a bounded violation window)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stream: list = []

    def observe(self, channel, bank, kind, row, now):
        self.stream.append(("cmd", now, channel, bank, kind.name, row))
        super().observe(channel, bank, kind, row, now)

    def on_auto_precharge(self, channel, bank, now):
        self.stream.append(("auto-pre", now, channel, bank))
        super().on_auto_precharge(channel, bank, now)

    def on_refresh(self, channel, now):
        self.stream.append(("refresh", now, channel))
        super().on_refresh(channel, now)


def test_sanitizer_sees_identical_command_stream(monkeypatch):
    """Both kernels must drive the DRAM through the same command
    sequence at the same cycles — validated by the protocol sanitizer,
    compared command by command."""
    rng = random.Random(3)
    specs = [random_spec(rng, f"san-{i}") for i in range(3)]
    streams = {}
    for kernel in ("event", "naive"):
        monkeypatch.setenv(KERNEL_ENV, kernel)
        config = SystemConfig(num_cores=len(specs))
        traces = [
            build_trace(config, 0, spec, 2_000, i, len(specs))
            for i, spec in enumerate(specs)
        ]
        policy = make_policy("stfm", num_threads=len(specs))
        system = CmpSystem(config, traces, policy, 2_000, sanitize=False)
        sanitizer = RecordingSanitizer(
            config.timing, system.mapper.num_channels, system.mapper.num_banks
        )
        system.sanitizer = sanitizer
        system.controller.attach_sanitizer(sanitizer)
        system.run()
        assert sanitizer.commands_checked > 0
        streams[kernel] = sanitizer.stream
    assert streams["event"] == streams["naive"]


def test_naive_escape_hatch_selects_naive(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "naive")
    assert kernel_name() == "naive"
    monkeypatch.delenv(KERNEL_ENV)
    assert kernel_name() == "event"
    monkeypatch.setenv(KERNEL_ENV, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        kernel_name()
