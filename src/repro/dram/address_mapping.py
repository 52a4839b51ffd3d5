"""Physical-address to DRAM-coordinate mapping.

:class:`SkylakeAddressMapping` is an Intel Skylake-style mapping (the
baseline used in Table I): the cacheline-aligned address bits are spread
over channel, column, bank group, bank, rank and row, with XOR hashing of
the bank bits to reduce conflicts.  Every :class:`~repro.dram.system
.DramSystem` channel decodes with it.

The paper's page-colouring layout, which pins each embedding table to one
rank, lives in the RecNMP model instead:
``RecNMPConfig(rank_assignment="page-coloring")``.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MemoryGeometry:
    """Geometry of the memory system being addressed.

    The default corresponds to the paper's baseline: 4 channels x 1 DIMM x
    2 ranks of 8 Gb x8 devices (64 GB total), 4 bank groups x 4 banks,
    8 KB row buffer (128 columns of 64 B).
    """

    num_channels: int = 4
    dimms_per_channel: int = 1
    ranks_per_dimm: int = 2
    bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 65536
    columns_per_row: int = 128          # 64-byte columns -> 8 KB row
    column_size_bytes: int = 64
    page_size_bytes: int = 4096

    def __post_init__(self):
        for name in ("num_channels", "dimms_per_channel", "ranks_per_dimm",
                     "bank_groups", "banks_per_group", "rows_per_bank",
                     "columns_per_row", "column_size_bytes",
                     "page_size_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)

    @property
    def row_size_bytes(self):
        return self.columns_per_row * self.column_size_bytes

    @property
    def ranks_per_channel(self):
        return self.dimms_per_channel * self.ranks_per_dimm

    @property
    def total_ranks(self):
        return self.num_channels * self.ranks_per_channel

    @property
    def bytes_per_rank(self):
        return (self.bank_groups * self.banks_per_group * self.rows_per_bank
                * self.row_size_bytes)

    @property
    def total_bytes(self):
        return self.bytes_per_rank * self.total_ranks


class SkylakeAddressMapping:
    """Skylake-style open-page-friendly mapping with bank XOR hashing.

    Bit allocation (on the 64-byte block address, low to high):
    channel -> column -> bank group -> bank -> rank -> dimm -> row.
    Keeping the column bits low in the block address preserves row-buffer
    locality for sequential streams, while XOR-ing row bits into the bank
    bits decorrelates conflicts for strided access.
    """

    def __init__(self, geometry=None):
        self.geometry = geometry or MemoryGeometry()

    def map_array(self, physical_addresses):
        """Decode a sequence of byte addresses at once: one int64 array
        per DRAM coordinate, in the order ``(channel, dimm, rank,
        bank_group, bank, row, column)``."""
        addresses = np.asarray(physical_addresses, dtype=np.int64)
        if addresses.size and addresses.min() < 0:
            raise ValueError("physical_address must be non-negative")
        g = self.geometry
        rest = addresses // g.column_size_bytes
        rest, channel = np.divmod(rest, g.num_channels)
        rest, column = np.divmod(rest, g.columns_per_row)
        rest, bank_group = np.divmod(rest, g.bank_groups)
        rest, bank = np.divmod(rest, g.banks_per_group)
        rest, rank = np.divmod(rest, g.ranks_per_dimm)
        rest, dimm = np.divmod(rest, g.dimms_per_channel)
        row = rest % g.rows_per_bank
        # XOR hash: fold the low row bits into the bank/bank-group selection
        # to spread row-conflicts (mirrors the behaviour of the Skylake
        # hashing studied by Pessl et al.).
        bank_group = (bank_group ^ (row & (g.bank_groups - 1))) % g.bank_groups
        bank = (bank ^ ((row >> 2) & (g.banks_per_group - 1))) \
            % g.banks_per_group
        return channel, dimm, rank, bank_group, bank, row, column
