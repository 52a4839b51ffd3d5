"""Embedding tables and the EmbeddingBag front-end.

:class:`EmbeddingTable` owns the table data (optionally 8-bit quantised) and
its placement in the simulated physical address space, which is what the
trace/packet generators need to turn row indices into DRAM addresses.
:class:`EmbeddingBag` groups the tables of one model and exposes the SLS
execution used by the functional DLRM model.
"""

import numpy as np

from repro.dlrm.operators import (
    quantize_rowwise_8bit,
    sparse_lengths_mean,
    sparse_lengths_sum,
    sparse_lengths_sum_8bit,
    sparse_lengths_weighted_sum,
)


class EmbeddingTable:
    """One embedding table with optional quantisation and address placement.

    Parameters
    ----------
    num_rows, embedding_dim:
        Table geometry.
    table_id:
        Integer identifier used in traces and NMP packets.
    base_address:
        Starting byte address of the table in the (virtual) address space;
        rows are laid out contiguously.
    quantized:
        If True the table stores uint8 rows with per-row scale/bias.
    seed:
        RNG seed for the synthetic weights.
    lazy:
        If True no weight data is materialised (address/geometry only), which
        is what the trace-driven performance studies use for the 1M-row
        production-scale tables.
    """

    def __init__(self, num_rows, embedding_dim, table_id=0, base_address=0,
                 quantized=False, seed=None, lazy=False):
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if base_address < 0:
            raise ValueError("base_address must be non-negative")
        self.num_rows = int(num_rows)
        self.embedding_dim = int(embedding_dim)
        self.table_id = int(table_id)
        self.base_address = int(base_address)
        self.quantized = bool(quantized)
        self.lazy = bool(lazy)
        self.weights = None
        self.quantized_rows = None
        self.scale = None
        self.bias = None
        if not lazy:
            rng = np.random.default_rng(seed)
            weights = rng.standard_normal(
                (self.num_rows, self.embedding_dim)).astype(np.float32)
            if quantized:
                self.quantized_rows, self.scale, self.bias = \
                    quantize_rowwise_8bit(weights)
            else:
                self.weights = weights

    # ------------------------------------------------------------------ #
    @property
    def bytes_per_row(self):
        """Storage bytes of one row (FP32, or uint8 + scale/bias)."""
        if self.quantized:
            return self.embedding_dim + 8  # uint8 elements + fp32 scale+bias
        return self.embedding_dim * 4

    @property
    def table_bytes(self):
        return self.num_rows * self.bytes_per_row

    def row_address(self, row_index):
        """Virtual byte address of a row."""
        if not 0 <= row_index < self.num_rows:
            raise IndexError(
                "row %d out of range for table with %d rows"
                % (row_index, self.num_rows))
        return self.base_address + row_index * self.bytes_per_row

    # ------------------------------------------------------------------ #
    def lookup(self, indices, lengths, weights=None, mode="sum"):
        """Execute an SLS-family pooling over this table."""
        if self.lazy:
            raise RuntimeError("lazy table cannot execute lookups")
        if self.quantized:
            return sparse_lengths_sum_8bit(self.quantized_rows, self.scale,
                                           self.bias, indices, lengths,
                                           weights)
        if mode == "sum":
            if weights is not None:
                return sparse_lengths_weighted_sum(self.weights, indices,
                                                   lengths, weights)
            return sparse_lengths_sum(self.weights, indices, lengths)
        if mode == "mean":
            return sparse_lengths_mean(self.weights, indices, lengths)
        raise ValueError("unsupported pooling mode %r" % (mode,))


class EmbeddingBag:
    """The set of embedding tables of one model instance.

    Tables are laid out back to back in a shared virtual address space
    starting at ``base_address``, each aligned to a page boundary so the
    page-colouring layout can pin whole tables to ranks.
    """

    def __init__(self, num_tables, num_rows, embedding_dim, base_address=0,
                 page_size=4096, quantized=False, seed=0, lazy=False):
        if num_tables <= 0:
            raise ValueError("num_tables must be positive")
        self.page_size = int(page_size)
        self.tables = []
        address = int(base_address)
        for table_id in range(num_tables):
            table = EmbeddingTable(
                num_rows=num_rows,
                embedding_dim=embedding_dim,
                table_id=table_id,
                base_address=address,
                quantized=quantized,
                seed=None if seed is None else seed + table_id,
                lazy=lazy,
            )
            self.tables.append(table)
            # Align the next table to a page boundary.
            address += table.table_bytes
            remainder = address % self.page_size
            if remainder:
                address += self.page_size - remainder
        self.total_bytes = address - int(base_address)

    def __getitem__(self, table_id):
        return self.tables[table_id]

    def forward(self, requests, mode="sum"):
        """Execute one SLS request per table; returns a list of outputs."""
        outputs = []
        for request in requests:
            table = self.tables[request.table_id]
            outputs.append(table.lookup(request.indices, request.lengths,
                                        weights=request.weights, mode=mode))
        return outputs
