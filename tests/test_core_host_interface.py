"""Tests for repro.core.host_interface (the Fig. 10 programming model)."""

import numpy as np
import pytest

from repro.core.host_interface import (
    MemoryRegion,
    NMPMemoryAllocator,
    RecNMPRuntime,
)
from repro.core.instruction import NMPOpcode
from repro.core.simulator import RecNMPConfig
from repro.dlrm.operators import (
    SLSRequest,
    sparse_lengths_sum,
    sparse_lengths_weighted_sum,
)


class TestAllocator:
    def test_regions_are_disjoint(self):
        allocator = NMPMemoryAllocator()
        table = allocator.allocate_table("emb", 100, 64)
        host = allocator.allocate_host_buffer("indices", 1024)
        assert table.region is MemoryRegion.NMP
        assert host.region is MemoryRegion.HOST
        assert table.end_address <= host.base_address
        assert allocator.region_of(table.base_address) is MemoryRegion.NMP
        assert allocator.region_of(host.base_address) is MemoryRegion.HOST

    def test_tables_page_aligned(self):
        allocator = NMPMemoryAllocator()
        first = allocator.allocate_table("a", 3, 64)
        second = allocator.allocate_table("b", 3, 64)
        assert first.base_address % 4096 == 0
        assert second.base_address % 4096 == 0
        assert second.base_address >= first.end_address

    def test_row_addresses(self):
        allocator = NMPMemoryAllocator()
        table = allocator.allocate_table("emb", 10, 256)
        assert table.row_address(0) == table.base_address
        assert table.row_address(3) == table.base_address + 3 * 256
        with pytest.raises(IndexError):
            table.row_address(10)

    def test_host_buffer_has_no_rows(self):
        allocator = NMPMemoryAllocator()
        buffer = allocator.allocate_host_buffer("out", 64)
        with pytest.raises(ValueError):
            buffer.row_address(0)

    def test_duplicate_names_rejected(self):
        allocator = NMPMemoryAllocator()
        allocator.allocate_host_buffer("x", 64)
        with pytest.raises(ValueError):
            allocator.allocate_host_buffer("x", 64)

    def test_nmp_region_exhaustion(self):
        allocator = NMPMemoryAllocator(nmp_region_base=0,
                                       host_region_base=8192)
        with pytest.raises(MemoryError):
            allocator.allocate_table("huge", 1000, 64)

    def test_lookup_by_name(self):
        allocator = NMPMemoryAllocator()
        allocation = allocator.allocate_host_buffer("lengths", 32)
        assert allocator["lengths"] is allocation

    def test_validation(self):
        with pytest.raises(ValueError):
            NMPMemoryAllocator(page_size=0)
        with pytest.raises(ValueError):
            NMPMemoryAllocator(nmp_region_base=100, host_region_base=50)
        with pytest.raises(ValueError):
            NMPMemoryAllocator().allocate_host_buffer("x", 0)
        with pytest.raises(ValueError):
            NMPMemoryAllocator().region_of(-1)


@pytest.fixture(scope="module")
def runtime():
    rng = np.random.default_rng(0)
    tables = {0: rng.standard_normal((256, 16)).astype(np.float32),
              1: rng.standard_normal((256, 16)).astype(np.float32)}
    config = RecNMPConfig(num_dimms=2, ranks_per_dimm=2,
                          vector_size_bytes=64)
    return RecNMPRuntime(config=config, tables=tables)


class TestRuntime:
    def test_tables_live_in_nmp_region(self, runtime):
        assert runtime.table_region(0) is MemoryRegion.NMP
        assert runtime.table_region(1) is MemoryRegion.NMP

    def test_sls_matches_reference(self, runtime):
        rng = np.random.default_rng(1)
        indices = rng.integers(0, 256, size=24)
        lengths = np.full(4, 6)
        execution = runtime.sls(0, indices, lengths, compare_baseline=False)
        expected = sparse_lengths_sum(runtime._tables[0], indices, lengths)
        np.testing.assert_allclose(execution.output, expected, rtol=1e-6)
        assert execution.simulated_cycles > 0
        assert execution.kernel.num_instructions == 24

    def test_weighted_sls(self, runtime):
        rng = np.random.default_rng(2)
        indices = rng.integers(0, 256, size=8)
        weights = rng.random(8).astype(np.float32)
        execution = runtime.sls(1, indices, [4, 4], weights=weights,
                                opcode=NMPOpcode.WEIGHTED_SUM,
                                compare_baseline=False)
        expected = sparse_lengths_weighted_sum(runtime._tables[1], indices,
                                               [4, 4], weights)
        np.testing.assert_allclose(execution.output, expected, rtol=1e-5)

    def test_mean_opcode(self, runtime):
        execution = runtime.sls(0, [1, 2, 3, 4], [4],
                                opcode=NMPOpcode.MEAN,
                                compare_baseline=False)
        expected = runtime._tables[0][[1, 2, 3, 4]].mean(axis=0)
        np.testing.assert_allclose(execution.output[0], expected, rtol=1e-5)

    def test_kernel_counter_configuration(self, runtime):
        rng = np.random.default_rng(3)
        request = SLSRequest(table_id=0,
                             indices=rng.integers(0, 256, size=12),
                             lengths=np.array([3, 4, 5]))
        kernel = runtime.compile_kernel([request])
        # One counter per (packet, pooling); counts sum to the lookup total.
        assert sum(kernel.counter_configuration.values()) == 12
        assert list(kernel.counter_configuration.values()) == [3, 4, 5]
        assert kernel.num_poolings == 3

    def test_multi_request_kernel(self, runtime):
        rng = np.random.default_rng(4)
        requests = [SLSRequest(table_id=t,
                               indices=rng.integers(0, 256, size=8),
                               lengths=np.array([4, 4])) for t in (0, 1)]
        execution = runtime.run_kernel(requests, compare_baseline=False)
        assert execution.output.shape == (4, 16)
        assert execution.kernel.num_packets >= 2

    def test_unknown_table_rejected(self, runtime):
        with pytest.raises(KeyError):
            runtime.sls(7, [0, 1], [2], compare_baseline=False)

    def test_weighted_requires_weights(self, runtime):
        with pytest.raises(ValueError):
            runtime.sls(0, [0, 1], [2], opcode=NMPOpcode.WEIGHTED_SUM,
                        compare_baseline=False)

    def test_duplicate_table_registration_rejected(self, runtime):
        with pytest.raises(ValueError):
            runtime.register_table(0, np.zeros((4, 4), dtype=np.float32))

    def test_1d_table_rejected(self):
        with pytest.raises(ValueError):
            RecNMPRuntime(tables={0: np.zeros(16, dtype=np.float32)})
