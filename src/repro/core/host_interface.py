"""Host-side programming model and execution flow (Fig. 10).

RecNMP adopts a heterogeneous-computing programming model: the application
is split into host calls running on the CPU and NMP kernels offloaded to
the RecNMP processing units.  This module provides that host-facing layer:

* :class:`NMPMemoryAllocator` -- places buffers in the *Host* (cacheable) or
  *NMP* (host-non-cacheable) regions of the physical address space, mapping
  embedding tables page-aligned into the NMP region (the ``NMP::matrix``
  allocation of Fig. 10(a)) through the simplified OS page mapper.
* :class:`NMPKernel` -- a compiled SLS kernel: the packets of NMP-Insts plus
  the memory-mapped accumulation-counter configuration the memory controller
  writes before launching the packets.
* :class:`RecNMPRuntime` -- the OpenCL-like host runtime: it owns the
  allocator, the packet generator/scheduler and a
  :class:`~repro.core.simulator.RecNMPSimulator`; ``runtime.sls(...)``
  executes an SLS call *functionally* (returning the pooled vectors computed
  by the NumPy reference datapath) and *temporally* (returning the simulated
  RecNMP timing for the same lookups).
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.instruction import NMPOpcode
from repro.core.simulator import RecNMPConfig, RecNMPSimulator
from repro.dlrm.operators import (
    SLSRequest,
    sparse_lengths_mean,
    sparse_lengths_sum,
    sparse_lengths_weighted_sum,
)


class MemoryRegion(enum.Enum):
    """Host-visible (cacheable) vs NMP (host-non-cacheable) memory."""

    HOST = "host"
    NMP = "nmp"


@dataclass
class Allocation:
    """One allocated buffer in the simulated physical address space."""

    name: str
    region: MemoryRegion
    base_address: int
    size_bytes: int
    row_bytes: int = 0

    @property
    def end_address(self):
        return self.base_address + self.size_bytes

    def row_address(self, row_index):
        """Physical address of a row of a table allocation."""
        if self.row_bytes <= 0:
            raise ValueError("allocation %r is not a table" % self.name)
        if not 0 <= row_index < self.size_bytes // self.row_bytes:
            raise IndexError("row %d out of range for %s"
                             % (row_index, self.name))
        return self.base_address + row_index * self.row_bytes


class NMPMemoryAllocator:
    """Bump allocator over the Host and NMP regions of physical memory.

    The NMP region holds the embedding tables (initialised by the host with
    a non-temporal hint, never cached on the host side); the Host region
    holds indices, lengths and the pooled outputs.  Tables are page-aligned
    so page colouring can pin them to ranks.
    """

    def __init__(self, nmp_region_base=0, host_region_base=1 << 40,
                 page_size=4096):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if host_region_base <= nmp_region_base:
            raise ValueError("host region must sit above the NMP region")
        self.page_size = int(page_size)
        self._cursors = {MemoryRegion.NMP: int(nmp_region_base),
                         MemoryRegion.HOST: int(host_region_base)}
        self._region_limits = {MemoryRegion.NMP: int(host_region_base),
                               MemoryRegion.HOST: None}
        self.allocations = {}

    def _align(self, value):
        remainder = value % self.page_size
        if remainder:
            value += self.page_size - remainder
        return value

    def allocate(self, name, size_bytes, region, row_bytes=0):
        """Allocate a named buffer; returns the :class:`Allocation`."""
        if name in self.allocations:
            raise ValueError("allocation %r already exists" % name)
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        base = self._align(self._cursors[region])
        limit = self._region_limits[region]
        if limit is not None and base + size_bytes > limit:
            raise MemoryError("NMP region exhausted allocating %r" % name)
        allocation = Allocation(name=name, region=region, base_address=base,
                                size_bytes=int(size_bytes),
                                row_bytes=int(row_bytes))
        self._cursors[region] = base + size_bytes
        self.allocations[name] = allocation
        return allocation

    def allocate_table(self, name, num_rows, row_bytes):
        """Allocate an embedding table in the NMP region (page aligned)."""
        return self.allocate(name, num_rows * row_bytes, MemoryRegion.NMP,
                             row_bytes=row_bytes)

    def allocate_host_buffer(self, name, size_bytes):
        """Allocate a host-cacheable buffer (indices, lengths, outputs)."""
        return self.allocate(name, size_bytes, MemoryRegion.HOST)

    def region_of(self, physical_address):
        """Which region an address belongs to (for coherence checks)."""
        if physical_address < 0:
            raise ValueError("physical_address must be non-negative")
        if physical_address < self._region_limits[MemoryRegion.NMP]:
            return MemoryRegion.NMP
        return MemoryRegion.HOST

    def __getitem__(self, name):
        return self.allocations[name]


@dataclass
class NMPKernel:
    """A compiled NMP kernel: packets plus counter configuration.

    ``counter_configuration`` maps ``(packet_id, psum_tag)`` to the number of
    vectors the rank/DIMM-NMP accumulation counters must see before the
    DIMM.Sum for that pooling is returned -- the memory-mapped register setup
    of Fig. 10(d).
    """

    requests: list
    packets: list
    opcode: NMPOpcode
    counter_configuration: dict = field(default_factory=dict)

    @property
    def num_packets(self):
        return len(self.packets)

    @property
    def num_instructions(self):
        return sum(len(packet) for packet in self.packets)

    @property
    def num_poolings(self):
        return sum(request.batch_size for request in self.requests)


@dataclass
class SLSExecution:
    """Result of one runtime SLS call: functional output plus timing."""

    output: np.ndarray
    kernel: NMPKernel
    result: object                    # RecNMPResult from the simulator

    @property
    def speedup_vs_baseline(self):
        return self.result.speedup_vs_baseline

    @property
    def simulated_cycles(self):
        return self.result.total_cycles


class RecNMPRuntime:
    """Host runtime tying allocation, compilation and execution together.

    Parameters
    ----------
    config:
        The :class:`RecNMPConfig` of the attached channel.
    tables:
        Mapping of table id to a NumPy array of embedding weights.  The
        runtime allocates each table in the NMP region and keeps the weights
        for the functional execution of kernels.
    """

    def __init__(self, config=None, tables=None):
        self.allocator = NMPMemoryAllocator()
        self._tables = {}
        self._table_allocations = {}
        if tables:
            for table_id, weights in tables.items():
                self.register_table(table_id, weights)
        self.config = config or RecNMPConfig()
        self.simulator = RecNMPSimulator(self.config,
                                         address_of=self._address_of)

    # ------------------------------------------------------------------ #
    # Memory management                                                  #
    # ------------------------------------------------------------------ #
    def register_table(self, table_id, weights):
        """Initialise an embedding table in NMP memory (Fig. 10(a))."""
        weights = np.asarray(weights, dtype=np.float32)
        if weights.ndim != 2:
            raise ValueError("embedding table must be 2-D")
        if table_id in self._tables:
            raise ValueError("table %r already registered" % table_id)
        row_bytes = weights.shape[1] * 4
        allocation = self.allocator.allocate_table(
            "emb_%s" % table_id, weights.shape[0], row_bytes)
        self._tables[table_id] = weights
        self._table_allocations[table_id] = allocation
        return allocation

    def _address_of(self, table_id, row):
        return self._table_allocations[table_id].row_address(row)

    def table_region(self, table_id):
        """Region of a table allocation (always the NMP region)."""
        return self._table_allocations[table_id].region

    # ------------------------------------------------------------------ #
    # Kernel compilation and launch                                      #
    # ------------------------------------------------------------------ #
    def compile_kernel(self, requests, opcode=NMPOpcode.SUM):
        """Compile SLS requests into an :class:`NMPKernel` (Fig. 10(b))."""
        requests = list(requests)
        for request in requests:
            if request.table_id not in self._tables:
                raise KeyError("table %r not registered" % request.table_id)
        packets = self.simulator.packet_generator.packets_for_requests(
            requests)
        counters = {}
        for packet in packets:
            for psum_tag, count in enumerate(
                    np.bincount(packet.instructions.psum_tags).tolist()):
                if count:
                    counters[(packet.packet_id, psum_tag)] = count
        return NMPKernel(requests=requests, packets=packets, opcode=opcode,
                         counter_configuration=counters)

    def _functional(self, request, opcode):
        weights = self._tables[request.table_id]
        if opcode is NMPOpcode.SUM:
            return sparse_lengths_sum(weights, request.indices,
                                      request.lengths)
        if opcode is NMPOpcode.MEAN:
            return sparse_lengths_mean(weights, request.indices,
                                       request.lengths)
        if opcode in (NMPOpcode.WEIGHTED_SUM, NMPOpcode.WEIGHTED_MEAN):
            if request.weights is None:
                raise ValueError("weighted opcode requires request weights")
            output = sparse_lengths_weighted_sum(
                weights, request.indices, request.lengths, request.weights)
            if opcode is NMPOpcode.WEIGHTED_MEAN:
                output = output / np.asarray(request.lengths,
                                             dtype=np.float32)[:, None]
            return output
        raise NotImplementedError("opcode %r not supported by the runtime"
                                  % (opcode,))

    def sls(self, table_id, indices, lengths, weights=None,
            opcode=NMPOpcode.SUM, compare_baseline=True):
        """The ``NMP::SLS`` host call of Fig. 10(a).

        Executes the pooling functionally (NumPy reference datapath, which is
        bit-identical to what the rank-NMP adders compute) and simulates the
        offloaded execution, returning an :class:`SLSExecution`.
        """
        request = SLSRequest(table_id=table_id, indices=indices,
                             lengths=lengths, weights=weights)
        return self.run_kernel([request], opcode=opcode,
                               compare_baseline=compare_baseline)

    def run_kernel(self, requests, opcode=NMPOpcode.SUM,
                   compare_baseline=True):
        """Compile and launch a multi-request kernel."""
        kernel = self.compile_kernel(requests, opcode=opcode)
        outputs = [self._functional(request, opcode)
                   for request in kernel.requests]
        result = self.simulator.run_requests(kernel.requests,
                                             compare_baseline=compare_baseline)
        output = outputs[0] if len(outputs) == 1 else np.concatenate(outputs)
        return SLSExecution(output=output, kernel=kernel, result=result)
