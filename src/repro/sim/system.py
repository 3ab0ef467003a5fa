"""The CMP system: cores + memory controller, and the main loop.

The loop advances in DRAM-cycle quanta (10 CPU cycles): the controller
makes its scheduling decisions at the start of each DRAM cycle, then each
core executes the quantum, issuing new requests that become visible to
the controller on the next decision point — matching the paper's
controller, which "only needs to make a decision every DRAM cycle"
(Section 5.1).
"""

from __future__ import annotations

from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest
from repro.cpu.core import Core, CoreSnapshot
from repro.cpu.trace import Trace
from repro.schedulers.base import SchedulingPolicy
from repro.sim.config import SystemConfig


class CmpSystem:
    """A chip multiprocessor sharing one DRAM memory controller."""

    def __init__(
        self,
        config: SystemConfig,
        traces: list[Trace],
        policy: SchedulingPolicy,
        instruction_budget: int | list[int],
        mlp_limits: list[int] | None = None,
        sanitize: bool | None = None,
    ) -> None:
        """Build the system.

        Args:
            sanitize: Attach the DRAM protocol sanitizer
                (:mod:`repro.analysis.protocol`) — every issued command
                is validated against DDR2 timing and a violation raises
                ``ProtocolViolation``.  ``None`` (default) defers to the
                ``STFM_SIM_SANITIZE`` environment toggle, which the CLI
                ``--sanitize`` flag sets so engine worker processes
                inherit it.  The sanitizer is observation-only: results
                are bit-identical either way.
        """
        if len(traces) > config.num_cores:
            raise ValueError("more traces than cores")
        if isinstance(instruction_budget, int):
            budgets = [instruction_budget] * len(traces)
        else:
            budgets = list(instruction_budget)
        if len(budgets) != len(traces):
            raise ValueError("need one instruction budget per trace")
        if mlp_limits is None:
            mlp_limits = [config.mshr_count] * len(traces)
        if len(mlp_limits) != len(traces):
            raise ValueError("need one MLP limit per trace")
        self.config = config
        self.mapper = config.mapper()
        self.controller = MemoryController(
            timing=config.timing,
            mapper=self.mapper,
            num_threads=len(traces),
            policy=policy,
            read_capacity=config.read_capacity,
            write_capacity=config.write_capacity,
            # Drain watermarks scale with the write buffer (24/8 at the
            # default 32): a fixed high mark above a small capacity could
            # never be reached, and writes would drain only while the
            # channel had no reads.
            write_drain_high=max(1, 3 * config.write_capacity // 4),
            write_drain_low=config.write_capacity // 4,
            page_policy=config.page_policy,
            refresh_enabled=config.refresh_enabled,
        )
        self._finished = 0
        self.cores = [
            Core(
                core_id=i,
                trace=trace,
                submit=self._submit,
                instruction_budget=budgets[i],
                window_size=config.window_size,
                commit_width=config.commit_width,
                mshr_count=config.mshr_count,
                max_outstanding=mlp_limits[i],
                on_snapshot=self._on_core_snapshot,
            )
            for i, trace in enumerate(traces)
        ]
        if sanitize is None:
            from repro.analysis.protocol import sanitize_enabled

            sanitize = sanitize_enabled()
        self.sanitizer = None
        if sanitize:
            from repro.analysis.protocol import ProtocolSanitizer

            self.sanitizer = ProtocolSanitizer(
                config.timing, self.mapper.num_channels, self.mapper.num_banks
            )
            self.controller.attach_sanitizer(self.sanitizer)
        # Wire STFM's Tshared source: the cores' memory-stall counters
        # (the paper communicates these with every memory request).
        cores = self.cores
        if hasattr(policy, "set_tshared_source"):
            policy.set_tshared_source(
                lambda thread_id: cores[thread_id].memory_stall_cycles,
                lambda: [core.memory_stall_cycles for core in cores],
            )
        # Sleeping cores (event kernel): core i is not stepped at ticks
        # before _wake[i]; a read of thread i being scheduled lowers it.
        self._wake = [0] * len(cores)
        self._quantum = config.timing.dram_cycle
        if self.controller._fast_path:
            self.controller.set_read_listener(self._wake_on_read)
        # Kernel counters (kept off result payloads, which must not
        # depend on the kernel): ticks run, core-ticks stepped and
        # core-ticks spent asleep.
        self.live_ticks = 0
        self.core_steps = 0
        self.core_sleeps = 0
        self.now = 0

    def _submit(
        self, thread_id: int, address: int, is_write: bool, now: int
    ) -> MemoryRequest | None:
        request = self.controller.make_request(thread_id, address, is_write, now)
        if self.controller.submit(request, now):
            return request
        return None

    def _wake_on_read(self, thread_id: int, completed_at: int) -> None:
        """A read of ``thread_id`` was scheduled: wake its core, if it
        sleeps, in the quantum where the data returns."""
        tick = completed_at - completed_at % self._quantum
        if tick < self._wake[thread_id]:
            self._wake[thread_id] = tick

    def _on_core_snapshot(self, core: Core) -> None:
        """O(1) finish detection: count budget crossings as they happen
        instead of polling every core's snapshot each quantum."""
        self._finished += 1

    def run(self, sampler=None) -> list[CoreSnapshot]:
        """Run until every core reaches its instruction budget.

        Traces loop by default, so early finishers keep applying memory
        pressure (their statistics are frozen at their own budget
        crossing).  A ``max_cycles`` safety net bounds runaway runs.

        This is the one simulation loop (DESIGN.md Section 3.14).  Each
        tick makes the controller's per-DRAM-cycle decision, then steps
        every core one quantum.  The *event* kernel (the default) lets a
        core sleep: after a step that stalled the whole quantum on its
        own reads (``Core.step`` returns True), the core is not stepped
        again before ``Core.wake_tick``, lowered by ``_wake_on_read``
        when one of its reads is scheduled, and accrues the quantum's
        stall cycles directly, so every counter stays exact on every
        tick.  The *naive* kernel (``STFM_SIM_KERNEL=naive``, fixed when
        the controller is built) steps every core on every tick.

        Args:
            sampler: Optional observer with a ``period`` (CPU cycles) and
                a ``sample(now)`` method, e.g.
                :class:`~repro.sim.telemetry.TelemetrySampler`.  It is
                called at the top of the first tick at or after each
                sample time, and once more after the loop ends.
        """
        quantum = self.config.timing.dram_cycle
        controller = self.controller
        cores = self.cores
        max_cycles = self.config.max_cycles
        num_cores = len(cores)
        sleeps = controller._fast_path
        wake = self._wake
        now = self.now
        next_sample = now if sampler is not None else max_cycles
        live = steps = 0
        while now < max_cycles:
            if now >= next_sample:
                sampler.sample(now)
                next_sample += sampler.period
            controller.tick(now)
            live += 1
            for i, core in enumerate(cores):
                if wake[i] > now:
                    core.memory_stall_cycles += quantum
                    continue
                steps += 1
                if core.step(now, quantum) and sleeps:
                    wake[i] = core.wake_tick(now, quantum)
            now += quantum
            if self._finished >= num_cores:
                break
        self.now = now
        self.live_ticks += live
        self.core_steps += steps
        self.core_sleeps += live * num_cores - steps
        if sampler is not None:
            sampler.sample(now)
        return [core.force_snapshot(now) for core in cores]

    # Kept only because perfbench's ``trace_simulator`` wraps it by name.
    def _quiet_horizon(self, *args):
        raise NotImplementedError
