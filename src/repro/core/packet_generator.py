"""Packet generator: turn SLS operator calls into packets of NMP-Insts.

This module reproduces the software/memory-controller pipeline of Fig. 10 and
Fig. 13: physical addresses are generated for every embedding lookup (via the
simplified OS page mapping), the DDR command tags (ACT/RD/PRE presence) are
set from the relative position of consecutive accesses, the LocalityBit is
filled in from hot-entry profiling, and the lookups are grouped into NMP
packets of a configurable number of poolings (bounded by the 4-bit PsumTag).

Each request is turned into columns in one array pass -- Daddrs, DDR
command tags, LocalityBits, PsumTag slots and weights -- and every packet
is a column slice of them (see :class:`NMPPacket`): no instruction object
is built.
"""

import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.core.hot_entry import HotEntryProfiler
from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPOpcode,
    NMPPacket,
    PackedInstructions,
    check_vector_size_bytes,
)


@dataclass
class PacketGeneratorConfig:
    """Configuration of packet generation.

    Attributes
    ----------
    poolings_per_packet:
        How many pooling operations share one NMP packet (1-16; the paper
        sweeps 1-8 in Fig. 14(a)).
    vector_size_bytes:
        Embedding vector size (64-256 B in production; at most 960 B, the
        largest the 4-bit vsize field encodes).
    row_buffer_bytes:
        DRAM row size used to decide whether consecutive vectors share a row
        (and therefore can skip ACT/PRE).
    enable_hot_entry_profiling:
        If True the LocalityBit is set from a :class:`HotEntryProfiler`;
        otherwise every instruction is marked cacheable (the paper's
        "RecNMP-cache" configuration without profiling).
    hot_entry_threshold:
        Repetition threshold for the profiler.
    opcode:
        SLS-family opcode stamped on the generated instructions.
    """

    poolings_per_packet: int = 8
    vector_size_bytes: int = 64
    row_buffer_bytes: int = 8192
    enable_hot_entry_profiling: bool = True
    hot_entry_threshold: int = 2
    opcode: NMPOpcode = NMPOpcode.SUM

    def __post_init__(self):
        check_generator_fields(self.poolings_per_packet,
                               self.hot_entry_threshold)
        check_vector_size_bytes(self.vector_size_bytes)
        if self.row_buffer_bytes <= 0:
            raise ValueError("row_buffer_bytes must be positive")
        self.opcode = NMPOpcode(self.opcode)

    @property
    def vsize(self):
        """Vector size in 64 B bursts."""
        return self.vector_size_bytes // 64


def check_generator_fields(poolings_per_packet, hot_entry_threshold):
    """Raise unless both fields are integers in range, naming the field.

    ``poolings_per_packet`` must be in [1, 16] (the 4-bit PsumTag) and
    ``hot_entry_threshold`` at least 1.  Numpy integers are accepted;
    floats are not, even integral ones: the packet slices and the
    profiler's repetition counts are integers.
    """
    if not (isinstance(poolings_per_packet, numbers.Integral)
            and 1 <= poolings_per_packet <= 16):
        raise ValueError("poolings_per_packet must be an integer in [1, 16] "
                         "(4-bit PsumTag), got %r" % (poolings_per_packet,))
    if not (isinstance(hot_entry_threshold, numbers.Integral)
            and hot_entry_threshold >= 1):
        raise ValueError("hot_entry_threshold must be an integer >= 1, "
                         "got %r" % (hot_entry_threshold,))


class PacketGenerator:
    """Generate NMP packets from SLS requests.

    Parameters
    ----------
    config:
        A :class:`PacketGeneratorConfig`.
    address_of:
        Callable ``(table_id, row_index) -> physical byte address``.  The
        embedding-bag layout plus the simplified OS page mapper provide this
        in the full pipeline; tests can pass simple lambdas.  A map that
        also accepts an int64 index array (returning the aligned address
        array) is called once per request: the first request with two or
        more lookups probes it against the scalar calls, and any map that
        fails the probe keeps one scalar call per lookup, in lookup order.
    """

    def __init__(self, config=None, address_of=None):
        self.config = config or PacketGeneratorConfig()
        if address_of is None:
            # Default: dense row-major placement of a single table at 0.
            address_of = lambda table_id, row: \
                row * self.config.vector_size_bytes  # noqa: E731
        self.address_of = address_of
        # (address map, takes index arrays) once the map was probed.
        self._address_probe = None
        # (key, columns) of the last request shape (see _shape_columns).
        self._shape = None
        self._packet_counter = 0

    def reset(self):
        """Restart packet ids from zero.

        Without this, a reused generator keeps numbering packets from where
        the previous run stopped.
        """
        self._packet_counter = 0

    # ------------------------------------------------------------------ #
    def _addresses(self, table_id, indices):
        """Physical byte addresses of one request's lookups (int64 array).

        The first request with at least two lookups probes ``address_of``
        with the index array and keeps the array call if it returns the
        scalar calls' integers.  An array call that raises later drops
        back to scalar calls for good; those raise any real error.
        """
        address_of = self.address_of
        probe = self._address_probe
        if probe is not None and probe[0] is address_of and probe[1]:
            try:
                return np.asarray(address_of(table_id, indices),
                                  dtype=np.int64)
            except Exception:  # repro-lint: allow-broad-except-audit (the scalar calls below repeat the lookup and raise any real error)
                probe = self._address_probe = (address_of, False)
        scalar = np.fromiter((address_of(table_id, row)
                              for row in indices.tolist()),
                             np.int64, len(indices))
        if len(indices) >= 2 and (probe is None
                                  or probe[0] is not address_of):
            try:
                vector = np.asarray(address_of(table_id, indices))
            except Exception:  # repro-lint: allow-broad-except-audit (a map that rejects index arrays stays on scalar calls, which raise real errors)
                vector = None
            takes_arrays = (vector is not None and vector.dtype.kind in "iu"
                            and vector.shape == scalar.shape
                            and bool((vector == scalar).all()))
            self._address_probe = (address_of, takes_arrays)
        return scalar

    # ------------------------------------------------------------------ #
    def packets_for_requests(self, requests, model_id=0):
        """Generate packets for a list of SLS requests (one batch).

        With profiling enabled, requests that read the same table share
        one hot-entry profile of the whole batch's lookups of it.
        """
        masks = [None] * len(requests)
        if self.config.enable_hot_entry_profiling:
            profiler = HotEntryProfiler(
                threshold=self.config.hot_entry_threshold)
            _, masks = profiler.profile_requests_with_masks(requests)
        packets = []
        for batch_index, request in enumerate(requests):
            packets.extend(self._packets(request, masks[batch_index],
                                         model_id, batch_index))
        return packets

    def _packets(self, request, hot, model_id, batch_index):
        """Columns of one request, sliced into packets.

        ``hot`` is the request's LocalityBit mask (None marks every lookup
        cacheable).  Poolings are grouped ``poolings_per_packet`` at a
        time; within a packet the PsumTag is the pooling's slot and a
        lookup keeps ACT/PRE only when its DRAM row differs from the
        previous lookup's (the first lookup of a packet always has them).
        """
        config = self.config
        table_id = request.table_id
        indices = request.indices
        count = len(indices)
        bounds, pooling_indices, psum_tags, vsizes, zeros, ones = \
            self._shape_columns(request.lengths)
        addresses = self._addresses(table_id, indices)
        daddrs = (addresses >> 6) & 0xFFFFFFFF
        dram_rows = addresses // config.row_buffer_bytes
        same_row = np.empty(count, np.bool_)
        np.equal(dram_rows[1:], dram_rows[:-1], out=same_row[1:])
        for start in bounds[:-1]:
            same_row[start] = False
        ddr_cmds = np.where(same_row, DDR_CMD_RD,
                            DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE)
        weights = request.weights
        weighted = zeros if weights is None else weights != 1.0
        localities = ones if hot is None else hot
        packets = []
        for start, end in zip(bounds, bounds[1:]):
            packed = PackedInstructions(
                daddrs[start:end], vsizes[start:end], weighted[start:end],
                localities[start:end], psum_tags[start:end])
            packets.append(NMPPacket(
                packed, config.opcode, ddr_cmds[start:end],
                None if weights is None else weights[start:end],
                pooling_indices[start:end], indices[start:end],
                table_id=table_id, model_id=model_id,
                batch_index=batch_index, packet_id=self._packet_counter))
            self._packet_counter += 1
        return packets

    def _shape_columns(self, lengths):
        """Columns that depend only on a request's pooling lengths.

        Returns ``(bounds, pooling_indices, psum_tags, vsizes, zeros,
        ones)``: the instruction offset of every packet's first lookup
        plus the end, each lookup's pooling index and PsumTag slot, the
        burst count, and all-False / all-True bool columns.  Serving
        batches repeat one shape, so the last shape's columns are kept,
        read-only, and shared by the packets cut from them.
        """
        config = self.config
        per_packet = config.poolings_per_packet
        key = (lengths.tobytes(), per_packet, config.vsize)
        if self._shape is not None and self._shape[0] == key:
            return self._shape[1]
        count = int(lengths.sum())
        num_poolings = len(lengths)
        bounds = list(accumulate(lengths.tolist(),
                                 initial=0))[:-1:per_packet] + [count]
        pooling_indices = np.repeat(np.arange(num_poolings), lengths)
        columns = (bounds, pooling_indices, pooling_indices % per_packet,
                   np.full(count, config.vsize, np.int64),
                   np.zeros(count, np.bool_), np.ones(count, np.bool_))
        for column in columns[1:]:
            column.flags.writeable = False
        self._shape = (key, columns)
        return columns
