"""Time-series telemetry for simulation runs.

A :class:`TelemetrySampler` periodically records per-thread state while
a :class:`~repro.sim.system.CmpSystem` runs: committed instructions,
memory stall cycles, and — when the scheduler estimates slowdowns (STFM,
MISE-STFM) — its *estimated* slowdowns.  This is how we validate the
paper's central mechanism: the hardware slowdown estimate (Section
3.2.2) tracking the measured slowdown over time, and how phase changes
interact with the IntervalLength register resets.  The sampler is an
observer of ``CmpSystem.run``, so it runs under either kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.system import CmpSystem


@dataclass
class TelemetrySample:
    """One snapshot of the system."""

    cycle: int
    instructions: list[int]
    stall_cycles: list[int]
    estimated_slowdowns: list[float] | None
    queued_reads: int
    fairness_mode: bool | None


@dataclass
class Telemetry:
    """A recorded run: samples plus simple access helpers."""

    samples: list[TelemetrySample] = field(default_factory=list)

    def series(self, attribute: str, thread: int | None = None) -> list:
        """Extract one per-sample series.

        Args:
            attribute: Sample field name.
            thread: For list-valued fields, which thread's element.
        """
        values = []
        for sample in self.samples:
            value = getattr(sample, attribute)
            if thread is not None and value is not None:
                value = value[thread]
            values.append(value)
        return values

    @property
    def cycles(self) -> list[int]:
        return [s.cycle for s in self.samples]

    def counter_samples(
        self, prefix: str = "stfm_sim"
    ) -> list[tuple[str, dict, float]]:
        """Final cumulative counters as ``(name, labels, value)`` samples.

        The shape :mod:`repro.service.metrics` renders, so a recorded
        run can be exported next to the service's own counters::

            stfm_sim_instructions_total{thread="0"} 4000
            stfm_sim_stall_cycles_total{thread="0"} 1212
            stfm_sim_cycles_total 51250
        """
        if not self.samples:
            return []
        last = self.samples[-1]
        samples: list[tuple[str, dict, float]] = []
        for i, value in enumerate(last.instructions):
            samples.append(
                (f"{prefix}_instructions_total", {"thread": str(i)}, float(value))
            )
        for i, value in enumerate(last.stall_cycles):
            samples.append(
                (f"{prefix}_stall_cycles_total", {"thread": str(i)}, float(value))
            )
        samples.append((f"{prefix}_cycles_total", {}, float(last.cycle)))
        return samples


class TelemetrySampler:
    """Samples a system every ``period`` CPU cycles while it runs."""

    def __init__(self, system: CmpSystem, period: int = 10_000) -> None:
        if period < system.config.timing.dram_cycle:
            raise ValueError("period must be at least one DRAM cycle")
        self.system = system
        self.period = period
        self.telemetry = Telemetry()

    def run(self) -> Telemetry:
        """Run the system to completion, sampling along the way.

        ``system.run(sampler=self)`` under either kernel: the loop calls
        :meth:`sample` at the first tick at or after each sample time and
        once at the end.  Returns the recorded telemetry (snapshots are
        also available on the system/cores as usual).
        """
        self.system.run(sampler=self)
        return self.telemetry

    def sample(self, now: int) -> None:
        """Record the system's state at the top of tick ``now``."""
        system = self.system
        policy = system.controller.policy
        estimated = None
        fairness_mode = None
        if hasattr(policy, "slowdown_of"):
            estimated = [
                policy.slowdown_of(i) for i in range(len(system.cores))
            ]
            fairness_mode = policy.fairness_mode
        self.telemetry.samples.append(
            TelemetrySample(
                cycle=now,
                instructions=[c.committed_instructions for c in system.cores],
                stall_cycles=[c.memory_stall_cycles for c in system.cores],
                estimated_slowdowns=estimated,
                queued_reads=system.controller.queues.total_reads(),
                fairness_mode=fairness_mode,
            )
        )
