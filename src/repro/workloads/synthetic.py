"""Synthetic L2-miss trace generation from benchmark characteristics.

Given a :class:`~repro.workloads.spec2006.BenchmarkSpec`, the generator
produces a seeded, deterministic trace whose statistics match the spec:

* **memory intensity** — demand reads appear at ``mpki`` per 1000
  instructions, spaced by exponentially distributed compute gaps;
* **burstiness** — misses arrive in bursts of ``burst_len`` on average,
  with ``burstiness`` shifting compute from intra-burst gaps into the
  inter-burst gap (creating the idle periods behind NFQ's idleness
  problem, Section 4);
* **row-buffer locality** — with probability ``rb_hit_rate`` an access
  stays in the current row (next column), otherwise it opens a new row;
* **bank-access balance** — row switches land on ``bank_focus`` favoured
  banks with probability ``bank_focus_weight`` (dealII/astar-style skew),
  or uniformly across all banks;
* **MLP** — loads are marked dependent with probability ``dependence``,
  serializing them in the core (omnetpp-style pointer chasing);
* **writebacks** — each read is followed by a writeback with probability
  ``write_fraction``.

Address streams of different partitions (cores) are disjoint row ranges,
mirroring multiprogrammed workloads that share no data.
"""

from __future__ import annotations

import random
from array import array

from repro.cpu.trace import ADDRESS_TYPE, COMPUTE_TYPE, DEPENDENT, WRITE, Trace
from repro.dram.address import AddressMapper
from repro.workloads.spec2006 import BenchmarkSpec


class SyntheticTraceGenerator:
    """Generates deterministic traces for benchmark specs."""

    def __init__(self, mapper: AddressMapper, seed: int = 0) -> None:
        self.mapper = mapper
        self.seed = seed

    def trace_for(
        self,
        spec: BenchmarkSpec,
        instructions: int,
        partition: int = 0,
        num_partitions: int = 1,
    ) -> Trace:
        """Build a trace of roughly ``instructions`` instructions.

        Args:
            spec: The benchmark to model.
            instructions: Target instruction count of one trace pass.
            partition: Which address partition (core slot) to use.
            num_partitions: Total partitions; rows are split evenly so
                threads never share rows.
        """
        if instructions < 1:
            raise ValueError("instructions must be positive")
        if not 0 <= partition < num_partitions:
            raise ValueError("partition out of range")
        rng = random.Random(f"{self.seed}/{spec.name}/{partition}")
        mapper = self.mapper

        span = max(1, mapper.num_rows // num_partitions)
        row_base = partition * span
        row_limit = row_base + span

        num_reads = max(4, round(instructions * spec.mpki / 1000.0))
        mean_gap = max(0.0, 1000.0 / max(spec.mpki, 1e-9) - 1.0)
        intra_mean = mean_gap * (1.0 - spec.burstiness)

        banks = list(range(mapper.num_banks))
        rng.shuffle(banks)
        focus_banks = banks[: spec.bank_focus] if spec.bank_focus else banks

        stream = _AddressStream(
            spec, mapper, rng, row_base, row_limit, focus_banks
        )

        computes = array(COMPUTE_TYPE)
        addresses = array(ADDRESS_TYPE)
        flags = bytearray()
        reads_emitted = 0
        first_burst = True
        while reads_emitted < num_reads:
            if spec.periodic_bursts:
                burst = spec.burst_len
            else:
                burst = max(1, round(rng.expovariate(1.0 / spec.burst_len)))
            burst = min(burst, num_reads - reads_emitted)
            # The inter-burst gap carries the compute displaced from the
            # intra-burst gaps, keeping the average MPKI on target.
            leading_mean = burst * mean_gap - (burst - 1) * intra_mean
            for position in range(burst):
                gap_mean = leading_mean if position == 0 else intra_mean
                if spec.periodic_bursts:
                    compute = int(round(gap_mean))
                    if position == 0 and first_burst:
                        # Phase-stagger the burst schedules of different
                        # partitions (paper Figure 3: each bursty thread
                        # is active in a different interval).
                        period = spec.burst_len * mean_gap
                        compute += int(period * partition / num_partitions)
                        first_burst = False
                else:
                    compute = _sample_gap(rng, gap_mean)
                computes.append(compute)
                addresses.append(stream.next_address())
                flags.append(DEPENDENT if rng.random() < spec.dependence else 0)
                reads_emitted += 1
                if rng.random() < spec.write_fraction:
                    computes.append(0)
                    addresses.append(stream.writeback_address())
                    flags.append(WRITE)
        return Trace.from_columns(computes, addresses, bytes(flags))


class _AddressStream:
    """Stateful address generation honouring locality and bank balance."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        mapper: AddressMapper,
        rng: random.Random,
        row_base: int,
        row_limit: int,
        focus_banks: list[int],
    ) -> None:
        self.spec = spec
        self.mapper = mapper
        self.rng = rng
        self.row_base = row_base
        self.row_limit = row_limit
        self.focus_banks = focus_banks
        self.channel = rng.randrange(mapper.num_channels)
        self.bank = focus_banks[0]
        self.row = row_base
        self.column = 0
        self._switch_row()

    def _switch_row(self) -> None:
        rng = self.rng
        spec = self.spec
        mapper = self.mapper
        if spec.bank_focus and rng.random() < spec.bank_focus_weight:
            self.bank = rng.choice(self.focus_banks)
        else:
            self.bank = rng.randrange(mapper.num_banks)
        self.channel = rng.randrange(mapper.num_channels)
        if spec.streaming:
            self.row += 1
            if self.row >= self.row_limit:
                self.row = self.row_base
            self.column = 0
        else:
            self.row = rng.randrange(self.row_base, self.row_limit)
            self.column = rng.randrange(mapper.lines_per_row)

    def next_address(self) -> int:
        rng = self.rng
        stay_in_row = (
            rng.random() < self.spec.rb_hit_rate
            and self.column + 1 < self.mapper.lines_per_row
        )
        if stay_in_row:
            self.column += 1
        else:
            self._switch_row()
        return self.mapper.compose(self.channel, self.bank, self.row, self.column)

    def writeback_address(self) -> int:
        """A writeback targets an old (evicted) row in a used bank."""
        rng = self.rng
        row = rng.randrange(self.row_base, self.row_limit)
        column = rng.randrange(self.mapper.lines_per_row)
        return self.mapper.compose(self.channel, self.bank, row, column)


def _sample_gap(rng: random.Random, mean: float) -> int:
    """Sample a compute-gap length with the requested mean."""
    if mean <= 0:
        return 0
    return int(rng.expovariate(1.0 / mean))


def generate_trace(
    spec: BenchmarkSpec,
    mapper: AddressMapper,
    instructions: int,
    seed: int = 0,
    partition: int = 0,
    num_partitions: int = 1,
) -> Trace:
    """Functional wrapper around :class:`SyntheticTraceGenerator`."""
    generator = SyntheticTraceGenerator(mapper, seed=seed)
    return generator.trace_for(
        spec, instructions, partition=partition, num_partitions=num_partitions
    )
