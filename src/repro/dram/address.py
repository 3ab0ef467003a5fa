"""Physical-address to DRAM-coordinate mapping.

The mapper decomposes a byte address into (channel, bank, row, column) at
cache-line granularity, using the classic layout ``row | bank | channel |
column | line offset`` with an optional XOR-based bank hash (Frailong et
al. [6], Zhang et al. [32]) as in the paper's baseline controller
("XOR-based addr-to-bank mapping", Table 2).

The inverse operation :meth:`AddressMapper.compose` is used by the
synthetic workload generator to author address streams with a target
row-buffer locality and bank-access balance.
"""

from __future__ import annotations

from typing import NamedTuple


def _bit_length_of_power_of_two(value: int, name: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value.bit_length() - 1


class DecodedAddress(NamedTuple):
    """DRAM coordinates of one cache line.

    A named tuple, not a frozen dataclass: every submit decodes one, and
    a frozen dataclass takes several times as long to build.
    """

    channel: int
    bank: int
    row: int
    column: int


class AddressMapper:
    """Maps byte addresses to DRAM coordinates and back.

    Args:
        num_channels: Independent DRAM channels (scaled with core count in
            the paper: 1/1/2/4 channels for 2/4/8/16 cores).
        num_banks: Banks per channel (8 in the baseline).
        num_rows: Rows per bank (2**14 in the paper's Table 1).
        row_buffer_bytes: Row-buffer size *per DRAM chip* (2 KB baseline;
            Table 5 varies 1/2/4 KB).
        chips_per_dimm: DRAM chips ganged into the 64-bit channel (8).
        line_bytes: Cache-line size (64 B).
        xor_bank_hash: Whether to XOR the low row bits into the bank index.
    """

    def __init__(
        self,
        num_channels: int = 1,
        num_banks: int = 8,
        num_rows: int = 1 << 14,
        row_buffer_bytes: int = 2048,
        chips_per_dimm: int = 8,
        line_bytes: int = 64,
        xor_bank_hash: bool = True,
    ) -> None:
        self.num_channels = num_channels
        self.num_banks = num_banks
        self.num_rows = num_rows
        self.row_buffer_bytes = row_buffer_bytes
        self.chips_per_dimm = chips_per_dimm
        self.line_bytes = line_bytes
        self.xor_bank_hash = xor_bank_hash

        effective_row_bytes = row_buffer_bytes * chips_per_dimm
        if effective_row_bytes % line_bytes:
            raise ValueError("row must hold an integral number of lines")
        self.lines_per_row = effective_row_bytes // line_bytes

        self._offset_bits = _bit_length_of_power_of_two(line_bytes, "line_bytes")
        self._column_bits = _bit_length_of_power_of_two(
            self.lines_per_row, "lines_per_row"
        )
        self._channel_bits = _bit_length_of_power_of_two(
            num_channels, "num_channels"
        )
        self._bank_bits = _bit_length_of_power_of_two(num_banks, "num_banks")
        self._row_bits = _bit_length_of_power_of_two(num_rows, "num_rows")

        self._column_mask = self.lines_per_row - 1
        self._channel_mask = num_channels - 1
        self._bank_mask = num_banks - 1
        self._row_mask = num_rows - 1

    @property
    def capacity_bytes(self) -> int:
        """Total bytes addressable by the mapper."""
        return (
            self.num_channels
            * self.num_banks
            * self.num_rows
            * self.lines_per_row
            * self.line_bytes
        )

    def decode(self, address: int) -> DecodedAddress:
        """Decode a byte address into DRAM coordinates.

        Addresses beyond :attr:`capacity_bytes` wrap (high bits ignored),
        mirroring physical-address truncation.
        """
        line = address >> self._offset_bits
        column = line & self._column_mask
        line >>= self._column_bits
        channel = line & self._channel_mask
        line >>= self._channel_bits
        bank_field = line & self._bank_mask
        line >>= self._bank_bits
        row = line & self._row_mask
        bank = bank_field
        if self.xor_bank_hash:
            bank ^= row & self._bank_mask
        return DecodedAddress(channel=channel, bank=bank, row=row, column=column)

    def compose(self, channel: int, bank: int, row: int, column: int) -> int:
        """Inverse of :meth:`decode`: build the byte address of a line.

        The generator uses this to place accesses on specific banks/rows.
        """
        if not 0 <= channel < self.num_channels:
            raise ValueError(f"channel {channel} out of range")
        if not 0 <= bank < self.num_banks:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= row < self.num_rows:
            raise ValueError(f"row {row} out of range")
        if not 0 <= column < self.lines_per_row:
            raise ValueError(f"column {column} out of range")
        bank_field = bank
        if self.xor_bank_hash:
            bank_field ^= row & self._bank_mask
        line = row
        line = (line << self._bank_bits) | bank_field
        line = (line << self._channel_bits) | channel
        line = (line << self._column_bits) | column
        return line << self._offset_bits
