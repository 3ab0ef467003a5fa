"""System configuration (the paper's Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.address import AddressMapper
from repro.dram.timing import DramTiming
from repro.schedulers.base import ARRIVAL_LIMIT


#: DRAM channels per core count: "Channels scaled with cores: 1, 1, 2, 4
#: parallel lock-step 64-bit wide channels for respectively 2, 4, 8, 16
#: cores" (Table 2), so bigger systems are not bandwidth-starved by fiat.
_CHANNEL_SCALING = {1: 1, 2: 1, 4: 1, 8: 2, 16: 4}


@dataclass(frozen=True)
class SystemConfig:
    """Processor + DRAM system parameters.

    Defaults reproduce Table 2: 4 GHz cores with a 128-entry window,
    3-wide commit (one memory op per cycle), 64 MSHRs; a 128-entry
    request buffer with a 32-entry write buffer per controller channel;
    DDR2-800 timing; 8 banks with 2 KB per-chip row buffers; channels
    scaled with the core count.
    """

    num_cores: int = 4
    num_channels: int | None = None
    num_banks: int = 8
    num_rows: int = 1 << 14
    row_buffer_bytes: int = 2048
    chips_per_dimm: int = 8
    line_bytes: int = 64
    xor_bank_hash: bool = True
    timing: DramTiming = field(default_factory=DramTiming)
    window_size: int = 128
    commit_width: int = 3
    mshr_count: int = 64
    read_capacity: int = 128
    write_capacity: int = 32
    page_policy: str = "open"
    refresh_enabled: bool = False
    max_cycles: int = 400_000_000

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")
        # A request arrives at most one quantum after the loop's last
        # tick, which is before max_cycles; the schedulers' integer
        # ranking orders arrivals below ARRIVAL_LIMIT only.
        if self.max_cycles + self.timing.dram_cycle > ARRIVAL_LIMIT:
            raise ValueError(
                f"max_cycles must be at most "
                f"{ARRIVAL_LIMIT - self.timing.dram_cycle}"
            )

    @property
    def channels(self) -> int:
        """Effective channel count (auto-scaled with cores by default)."""
        if self.num_channels is not None:
            return self.num_channels
        if self.num_cores in _CHANNEL_SCALING:
            return _CHANNEL_SCALING[self.num_cores]
        return max(1, self.num_cores // 4)

    def mapper(self) -> AddressMapper:
        return AddressMapper(
            num_channels=self.channels,
            num_banks=self.num_banks,
            num_rows=self.num_rows,
            row_buffer_bytes=self.row_buffer_bytes,
            chips_per_dimm=self.chips_per_dimm,
            line_bytes=self.line_bytes,
            xor_bank_hash=self.xor_bank_hash,
        )

    def memory_key(self) -> tuple:
        """Hashable identity of the *memory system* (for alone-run caching).

        Run-alone baselines depend only on the memory system and core
        microarchitecture, not on which other threads run — two shared
        configurations with the same memory system share baselines.
        """
        return (
            self.channels,
            self.num_banks,
            self.num_rows,
            self.row_buffer_bytes,
            self.chips_per_dimm,
            self.line_bytes,
            self.xor_bank_hash,
            self.timing,
            self.window_size,
            self.commit_width,
            self.mshr_count,
            self.read_capacity,
            self.write_capacity,
            self.page_policy,
            self.refresh_enabled,
        )
