"""Tests for repro.dram.commands."""

import pytest

from repro.dram.commands import CommandType, MemoryRequest, RequestType


class TestMemoryRequest:
    def test_defaults(self):
        request = MemoryRequest(physical_address=4096)
        assert request.request_type is RequestType.READ
        assert request.size_bytes == 64
        assert request.completion_cycle == -1

    def test_unique_ids(self):
        a = MemoryRequest(physical_address=0)
        b = MemoryRequest(physical_address=0)
        assert a.request_id != b.request_id

    def test_latency_requires_completion(self):
        request = MemoryRequest(physical_address=0)
        with pytest.raises(ValueError):
            _ = request.latency_cycles
        request.arrival_cycle = 10
        request.completion_cycle = 50
        assert request.latency_cycles == 40

    def test_num_bursts(self):
        assert MemoryRequest(physical_address=0, size_bytes=64).num_bursts() \
            == 1
        assert MemoryRequest(physical_address=0, size_bytes=256).num_bursts() \
            == 4
        assert MemoryRequest(physical_address=0, size_bytes=65).num_bursts() \
            == 2

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            MemoryRequest(physical_address=-1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            MemoryRequest(physical_address=0, size_bytes=0)

    def test_metadata_is_per_instance(self):
        a = MemoryRequest(physical_address=0)
        b = MemoryRequest(physical_address=0)
        a.metadata["table"] = 1
        assert b.metadata == {}


class TestCommands:
    def test_command_types(self):
        assert CommandType.ACT.value == "ACT"
        assert CommandType.RD.value == "RD"
        assert CommandType.PRE.value == "PRE"
