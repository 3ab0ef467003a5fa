"""Differential tests: event-driven kernel vs the naive reference kernel.

The event-driven kernel (DESIGN.md §3.14: cached candidate lists, the
issue-time scan, sleeping cores) must be *bit-identical* to the naive
kernel, which scans eagerly and steps every core on every DRAM cycle —
not statistically close, the same numbers.  These tests run randomized workloads through both kernels
(selected via ``STFM_SIM_KERNEL``) across every scheduling policy,
refresh on/off, write-drain pressure, and MLP limits, and compare full
result fingerprints: core snapshots, controller counters, per-thread
memory statistics, per-channel command mixes, and (separately) the exact
command stream the protocol sanitizer observes.
"""

from __future__ import annotations

import random
from typing import Callable

import pytest

from repro.analysis.protocol import ProtocolSanitizer
from repro.dram.timing import DramTiming
from repro.engine.jobs import build_trace
from repro.schedulers import make_policy
from repro.sim.config import SystemConfig
from repro.sim.kernel import KERNEL_ENV, kernel_name
from repro.sim.system import CmpSystem
from repro.sim.telemetry import TelemetrySampler
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
    max_cycles: int = SystemConfig.max_cycles,
    sample_period: "int | None" = None,
    read_capacity: int = 128,
    before_run: "Callable[[CmpSystem], None] | None" = None,
    timing: "DramTiming | None" = None,
) -> dict:
    """Run one workload under ``kernel`` and fingerprint everything.

    With ``sample_period`` the run carries a telemetry sampler, and its
    samples join the fingerprint.  ``before_run`` is called with the
    built system just before it runs.
    """
    monkeypatch.setenv(KERNEL_ENV, kernel)
    assert kernel_name() == kernel
    config = SystemConfig(
        num_cores=len(specs),
        refresh_enabled=refresh,
        read_capacity=read_capacity,
        write_capacity=write_capacity,
        max_cycles=max_cycles,
        **({} if timing is None else {"timing": timing}),
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
    sampler = None
    if sample_period is not None:
        sampler = TelemetrySampler(system, period=sample_period)
    if before_run is not None:
        before_run(system)
    snapshots = system.run(sampler=sampler)
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
    if sampler is not None:
        fingerprint["samples"] = sampler.telemetry.samples
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
    """Regression: fig3-style bursty threads with long pure-compute gaps
    next to a continuously missing thread, so cores fall asleep and wake
    while others commit."""
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
    """A small write buffer forces frequent drain-mode flips, with cores
    stalled on the full buffer (which must never put them to sleep)."""
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
    """Serialized pointer chases (MLP 1): the core sleeps on every
    dependent load and must wake in the quantum its data returns."""
    rng = random.Random(11)
    spec = random_spec(rng, "chase")
    spec = BenchmarkSpec(
        **{**spec.__dict__, "dependence": 0.3, "mlp": 1, "name": "chase"}
    )
    assert_identical(monkeypatch, [spec], "fr-fcfs", mlp_limits=[1])


@pytest.mark.parametrize("policy_name", ["staged", "bliss", "mise-stfm", "stfm"])
def test_streaming_agent_mix_bit_identical(monkeypatch, policy_name):
    """A GPU-like streaming agent next to CPU threads: the agent's long
    bursts and high MLP keep the candidate caches churning, and the
    policies' epoch timers see every tick under both kernels."""
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
        # A short interval: register resets land inside the run.
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


def test_short_interval_resets_in_live_ticks(monkeypatch):
    """The short-interval case really does reset during the run (so the
    differential test above covers register resets)."""
    from repro.core.stfm import StfmPolicy

    rng = random.Random(5000)
    specs = [random_spec(rng, f"opt-{i}") for i in range(4)]
    resets = 0
    original_begin = StfmPolicy.begin_cycle

    def counting(self, *args):
        nonlocal resets
        before = self.registers.resets
        original_begin(self, *args)
        resets += self.registers.resets - before

    monkeypatch.setattr(StfmPolicy, "begin_cycle", counting)
    simulate(
        monkeypatch, "event", specs, "stfm",
        policy_kwargs={"interval_length": 1 << 12},
    )
    assert resets > 0


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


@pytest.mark.parametrize("policy_name", ["fr-fcfs", "stfm"])
def test_small_write_buffer_completes(monkeypatch, policy_name):
    """Regression: with a fixed drain high watermark (24) above an
    8-entry write buffer, writes drained only while a channel had no
    reads, so cores blocked on the full buffer never finished.  The
    watermarks now scale with the capacity."""
    rng = random.Random(5001)
    specs = [random_spec(rng, f"opt-{i}") for i in range(4)]
    max_cycles = 400_000
    results = [
        simulate(
            monkeypatch, kernel, specs, policy_name, seed=1,
            write_capacity=8, max_cycles=max_cycles,
        )
        for kernel in ("event", "naive")
    ]
    assert results[0] == results[1]
    assert results[0]["now"] < max_cycles
    assert all(snap.instructions >= 2_000 for snap in results[0]["snapshots"])


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("period", [15, 1_235])
def test_telemetry_samples_identical(monkeypatch, policy_name, period):
    """Each telemetry sample sees the same state under both kernels —
    including periods that are not a multiple of the 10-cycle quantum,
    and sleeping cores, whose stall counters are exact on every tick."""
    rng = random.Random(3000 + POLICIES.index(policy_name))
    num_cores = rng.choice([2, 4])
    specs = [random_spec(rng, f"tel-{i}") for i in range(num_cores)]
    kwargs = dict(
        refresh=rng.random() < 0.5,
        mlp_limits=[rng.randint(1, 8) for _ in range(num_cores)],
        sample_period=period,
    )
    event = simulate(monkeypatch, "event", specs, policy_name, **kwargs)
    naive = simulate(monkeypatch, "naive", specs, policy_name, **kwargs)
    assert len(event["samples"]) > 2
    assert event["samples"][-1].cycle == event["now"]
    assert event == naive


def test_kernel_is_chosen_when_the_system_is_built(monkeypatch):
    """A system built under the naive kernel stays naive when the
    environment changes before it runs: every DRAM cycle ticks and
    every core steps on each of them."""
    from repro.controller.controller import MemoryController

    rng = random.Random(4)
    specs = [random_spec(rng, f"once-{i}") for i in range(2)]
    monkeypatch.setenv(KERNEL_ENV, "naive")
    config = SystemConfig(num_cores=len(specs))
    traces = [
        build_trace(config, 0, spec, 1_000, i, len(specs))
        for i, spec in enumerate(specs)
    ]
    system = CmpSystem(
        config, traces, make_policy("fr-fcfs", num_threads=2), 1_000
    )
    monkeypatch.setenv(KERNEL_ENV, "event")
    ticks = []
    original = MemoryController.tick

    def counting(self, now):
        ticks.append(now)
        original(self, now)

    monkeypatch.setattr(MemoryController, "tick", counting)
    system.run()
    assert ticks == list(range(0, system.now, config.timing.dram_cycle))
    assert system.core_sleeps == 0


# -- sleeping cores -------------------------------------------------------------


def _kernel_mix_system(kernel: str, monkeypatch, budget: int) -> CmpSystem:
    """perfbench's ``kernel`` mix (4-core STFM, seed 1) at ``budget``."""
    from repro.engine.jobs import resolve_spec
    from repro.sim.runner import ExperimentRunner

    monkeypatch.setenv(KERNEL_ENV, kernel)
    config = SystemConfig(num_cores=4)
    runner = ExperimentRunner(config, instruction_budget=budget, seed=1)
    specs = [
        resolve_spec(name) for name in ("mcf", "libquantum", "GemsFDTD", "astar")
    ]
    traces = [runner.trace_for(spec, i, 4) for i, spec in enumerate(specs)]
    return CmpSystem(
        config,
        traces,
        make_policy("stfm", num_threads=4),
        [runner.budget_for(spec) for spec in specs],
        mlp_limits=[spec.mlp for spec in specs],
    )


def test_stalled_cores_sleep_on_the_kernel_mix(monkeypatch):
    """The event kernel steps a core stalled on its own reads only when
    one of them is scheduled or returns; the naive kernel steps every
    core on every tick.  Tick counts and results do not change."""
    runs = {}
    for kernel in ("event", "naive"):
        system = _kernel_mix_system(kernel, monkeypatch, budget=2_000)
        runs[kernel] = (system, system.run())
    event, naive = runs["event"][0], runs["naive"][0]
    assert runs["event"][1] == runs["naive"][1]
    assert event.now == naive.now
    cores = len(event.cores)
    assert event.core_steps < 0.25 * cores * event.live_ticks
    assert event.core_steps + event.core_sleeps == cores * event.live_ticks
    assert naive.core_steps == cores * naive.live_ticks
    assert naive.core_sleeps == 0
    assert event.live_ticks == naive.live_ticks


def _block_reason(core, now: int) -> str:
    """Why the fetch of a core that stalled the whole quantum from
    ``now`` stopped, checked in the order ``Core._fetch`` checks."""
    if core._window_instrs >= core.window_size:
        return "window"
    record = core.cursor.peek_memory()
    if record is None:
        return "trace"
    if record.is_write:
        return "write buffer"
    last = core._last_read
    if record.dependent and last is not None and (
        last.completed_at is None or last.completed_at > now
    ):
        return "dependent"
    if len(core.mshrs) >= core.max_outstanding:
        return "mlp"
    return "read buffer"


class BlockRecorder:
    """Records why cores fell asleep, and which whole-quantum stalls ran
    into a full request buffer, without changing what a step does."""

    def __init__(self, monkeypatch) -> None:
        from repro.cpu.core import Core

        self.sleeps: dict[str, int] = {}
        self.buffer_full_stalls = 0
        self.buffer_full_sleeps = 0
        self._rejected: set[int] = set()
        original = Core.step

        def step(core, now, cycles):
            self._rejected.discard(core.core_id)
            stall = core.memory_stall_cycles
            sleeps = original(core, now, cycles)
            if core.core_id in self._rejected and (
                core.memory_stall_cycles - stall == cycles
            ):
                self.buffer_full_stalls += 1
                self.buffer_full_sleeps += sleeps
            if sleeps:
                reason = _block_reason(core, now)
                self.sleeps[reason] = self.sleeps.get(reason, 0) + 1
            return sleeps

        monkeypatch.setattr(Core, "step", step)

    def attach(self, system: CmpSystem) -> None:
        for core in system.cores:
            def submit(thread_id, address, is_write, now, inner=core.submit):
                request = inner(thread_id, address, is_write, now)
                if request is None:
                    self._rejected.add(thread_id)
                return request

            core.submit = submit


def _blocking_spec(name: str, **overrides) -> BenchmarkSpec:
    fields = dict(
        name=name, itype="SYN", mcpi=4.0, mpki=40.0, rb_hit_rate=0.5,
        category=2, burstiness=0.0, dependence=0.0, mlp=8,
        write_fraction=0.0,
    )
    fields.update(overrides)
    return BenchmarkSpec(**fields)


#: Mixes that reach each way a core's fetch can block: (specs, run
#: options, the block reason the cores must sleep on — None where they
#: must not sleep on it).
BLOCK_MIXES = {
    # Sparse misses: compute fills the window behind a missing head.
    "window": (
        [_blocking_spec(f"sparse-{i}", mpki=3.0) for i in range(2)],
        {"budget": 20_000},
        "window",
    ),
    "mlp": (
        [_blocking_spec(f"serial-{i}") for i in range(2)],
        {"mlp_limits": [1, 1]},
        "mlp",
    ),
    "dependent": (
        [_blocking_spec(f"chase-{i}", dependence=1.0) for i in range(2)],
        {},
        "dependent",
    ),
    "write buffer": (
        [_blocking_spec(f"writer-{i}", write_fraction=1.0) for i in range(4)],
        {"write_capacity": 4},
        None,
    ),
    # Three cores may hold 24 reads; the buffer takes 8.
    "read buffer": (
        [_blocking_spec(f"reader-{i}") for i in range(3)],
        {"read_capacity": 8},
        None,
    ),
}


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("block", list(BLOCK_MIXES))
def test_each_way_to_block_bit_identical(monkeypatch, policy_name, block):
    """A core sleeps on a full window, its MLP cap or a dependent load,
    which only its own reads release; never on a full read or write
    buffer, which other threads' commands free too.  Either way the
    event kernel matches the naive one."""
    specs, options, sleeps_on = BLOCK_MIXES[block]
    options = {"budget": 1_500, **options}
    systems = []
    with monkeypatch.context() as patch:
        recorder = BlockRecorder(patch)

        def before_run(system):
            recorder.attach(system)
            systems.append(system)

        event = simulate(
            patch, "event", specs, policy_name, before_run=before_run,
            **options,
        )
    naive = simulate(monkeypatch, "naive", specs, policy_name, **options)
    assert event == naive
    assert set(recorder.sleeps) <= {"window", "mlp", "dependent"}
    assert recorder.buffer_full_sleeps == 0
    if sleeps_on is None:
        assert recorder.buffer_full_stalls > 0
    else:
        assert recorder.sleeps.get(sleeps_on, 0) > 0
        assert systems[0].core_sleeps > 0


@pytest.mark.parametrize("policy_name", POLICIES)
def test_mid_quantum_completions_bit_identical(monkeypatch, policy_name):
    """With the default DDR2 timing every read completes on a quantum
    boundary.  A 45-cycle controller overhead moves completions inside a
    quantum, where a sleeping core must wake in the quantum that holds
    the completion (its floor), not the one after."""
    rng = random.Random(6000 + POLICIES.index(policy_name))
    specs = [random_spec(rng, f"odd-{i}") for i in range(3)]
    timing = DramTiming(t_overhead_ns=11.25)
    assert timing.overhead % timing.dram_cycle
    assert_identical(
        monkeypatch, specs, policy_name, timing=timing,
        mlp_limits=[rng.randint(1, 8) for _ in range(3)],
    )
