"""Tests for repro.dram.system and repro.dram.energy."""

import dataclasses
import random

import pytest

from ddr4_reference import skylake_decode
from repro.dram.address_mapping import SkylakeAddressMapping
from repro.dram.controller import MemoryController
from repro.dram.energy import DramEnergyModel, DramEnergyParameters
from repro.dram.system import DramSystem, DramSystemConfig
from repro.dram.timing import DDR4_2400


class TestDramSystemConfig:
    def test_defaults_match_table1(self):
        config = DramSystemConfig()
        assert config.num_channels == 4
        assert config.ranks_per_dimm == 2
        assert config.queue_depth == 32
        assert config.peak_bandwidth_gbps == pytest.approx(76.8)

    @pytest.mark.parametrize("num_channels,clock_mhz,expected", [
        (1, 1200.0, 19.2),  # DDR4-2400 x 64-bit bus
        (2, 1200.0, 38.4),
        (1, 800.0, 12.8),   # DDR4-1600
    ])
    def test_peak_bandwidth_per_channel(self, num_channels, clock_mhz,
                                        expected):
        timing = dataclasses.replace(DDR4_2400, clock_mhz=clock_mhz)
        config = DramSystemConfig(num_channels=num_channels, timing=timing)
        assert config.peak_bandwidth_gbps == pytest.approx(expected)

    def test_total_ranks(self):
        assert DramSystemConfig().total_ranks == 8

    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            DramSystemConfig(num_channels=0)


class TestDramSystemExecution:
    def test_trace_distributes_over_channels(self):
        system = DramSystem(DramSystemConfig(num_channels=2))
        addresses = [i * 64 for i in range(64)]
        result = system.run_trace(addresses)
        assert result.requests == 64
        assert len(result.per_channel_stats) == 2

    def test_multi_channel_faster_than_single(self):
        addresses = [i * 64 for i in range(256)]
        single = DramSystem(DramSystemConfig(num_channels=1)).run_trace(
            addresses)
        quad = DramSystem(DramSystemConfig(num_channels=4)).run_trace(
            addresses)
        assert quad.cycles < single.cycles

    def test_large_requests_expand_to_bursts(self):
        system = DramSystem(DramSystemConfig(num_channels=1))
        addresses = [i * 256 for i in range(32)]
        small = system.run_trace(addresses, request_bytes=64)
        system2 = DramSystem(DramSystemConfig(num_channels=1))
        large = system2.run_trace(addresses, request_bytes=256)
        assert large.requests == 4 * small.requests
        assert large.cycles > small.cycles

    def test_rejects_bad_request_bytes(self):
        system = DramSystem()
        with pytest.raises(ValueError):
            system.run_trace([0], request_bytes=100)

    def test_bandwidth_below_peak(self):
        system = DramSystem(DramSystemConfig(num_channels=1))
        addresses = [i * 64 for i in range(512)]
        result = system.run_trace(addresses)
        per_channel_peak = DDR4_2400.data_rate_mts * 1e6 * 8 / 1e9
        assert 0 < result.achieved_bandwidth_gbps <= per_channel_peak * 1.01

    def test_energy_reported(self):
        system = DramSystem(DramSystemConfig(num_channels=1))
        result = system.run_trace([i * 4096 for i in range(64)])
        assert result.energy_nj > 0
        assert result.energy_breakdown["activate_nj"] > 0

    @pytest.mark.parametrize("num_channels", [1, 2])
    def test_each_trace_reports_only_itself(self, num_channels):
        # A reused system used to carry each controller's statistics and
        # clock into the next call: the second of two identical 16-request
        # traces reported 32 requests and about twice the cycles.
        config = DramSystemConfig(num_channels=num_channels)
        trace = [i * 4096 for i in range(16)]
        reference = DramSystem(config)
        fresh = reference.run_trace(trace)
        system = DramSystem(config)
        first = system.run_trace(trace)
        second = system.run_trace(trace)
        assert first.requests == second.requests == 16
        assert first == second == fresh
        assert [controller.completion_cycles
                for controller in system.controllers] == \
            [controller.completion_cycles
             for controller in reference.controllers]


#: Populations the decode-once handoff must hold on: one rank only, a
#: trace spread over channels, DIMMs and ranks, the Table I default and an
#: odd channel count (the channel field is not a power of two).
DECODE_CONFIGS = {
    "1ch-1dimm-1rank": DramSystemConfig(num_channels=1, dimms_per_channel=1,
                                        ranks_per_dimm=1),
    "2ch-2dimm-2rank": DramSystemConfig(num_channels=2, dimms_per_channel=2,
                                        ranks_per_dimm=2),
    "table1": DramSystemConfig(),
    "3ch-1dimm-2rank": DramSystemConfig(num_channels=3),
}


def _decode_trace():
    rng = random.Random(5)
    return [rng.randrange(0, 1 << 22) // 64 * 64 for _ in range(96)]


class TestDecodeOnce:
    @pytest.mark.parametrize("request_bytes", [64, 256])
    @pytest.mark.parametrize("config", sorted(DECODE_CONFIGS))
    def test_run_trace_maps_each_burst_once(self, monkeypatch, config,
                                            request_bytes):
        """One array decode of every burst, in trace order, each request
        expanded into its consecutive 64 B bursts."""
        calls = []
        decode = SkylakeAddressMapping.map_array

        def counted(self, physical_addresses):
            calls.append(list(physical_addresses))
            return decode(self, physical_addresses)

        monkeypatch.setattr(SkylakeAddressMapping, "map_array", counted)
        addresses = _decode_trace()
        result = DramSystem(DECODE_CONFIGS[config]).run_trace(
            addresses, request_bytes=request_bytes,
            outstanding_per_channel=8)
        bursts = [address + 64 * burst for address in addresses
                  for burst in range(request_bytes // 64)]
        assert result.requests == len(bursts)
        assert calls == [bursts]

    @pytest.mark.parametrize("outstanding", [None, 4])
    @pytest.mark.parametrize("config", sorted(DECODE_CONFIGS))
    def test_decoded_handoff_matches_per_channel_traces(self, config,
                                                        outstanding):
        """Results are those of each channel's controller decoding its
        own bursts with its own mapping in ``process_trace``."""
        config = DECODE_CONFIGS[config]
        system = DramSystem(config)
        result = system.run_trace(_decode_trace(), request_bytes=128,
                                  outstanding_per_channel=outstanding)
        mapping = system.controllers[0].address_mapping
        per_channel = [[] for _ in range(config.num_channels)]
        for address in _decode_trace():
            for burst_address in (address, address + 64):
                channel = skylake_decode(mapping.geometry,
                                         burst_address).channel
                per_channel[channel].append(burst_address)
        expected = []
        for bursts in per_channel:
            controller = MemoryController(
                timing=config.timing, num_dimms=config.dimms_per_channel,
                ranks_per_dimm=config.ranks_per_dimm,
                address_mapping=mapping, queue_depth=config.queue_depth)
            stats = controller.process_trace(bursts, outstanding)
            expected.append(dataclasses.asdict(stats))
        assert [dataclasses.asdict(stats)
                for stats in result.per_channel_stats] == expected
        assert len(expected) == config.num_channels


class TestDramEnergyModel:
    def test_activation_energy(self):
        model = DramEnergyModel()
        breakdown = model.energy(activations=10, bytes_read=0,
                                 bytes_to_host=0, elapsed_ns=0)
        assert breakdown.activate_nj == pytest.approx(21.0)

    def test_read_and_io_energy(self):
        model = DramEnergyModel()
        breakdown = model.energy(activations=0, bytes_read=64,
                                 bytes_to_host=64, elapsed_ns=0)
        assert breakdown.read_write_nj == pytest.approx(64 * 8 * 14 / 1000)
        assert breakdown.offchip_io_nj == pytest.approx(64 * 8 * 22 / 1000)

    def test_background_energy_scales_with_time_and_ranks(self):
        model = DramEnergyModel()
        one = model.energy(0, 0, 0, elapsed_ns=1000, active_ranks=1)
        two = model.energy(0, 0, 0, elapsed_ns=1000, active_ranks=2)
        assert two.background_nj == pytest.approx(2 * one.background_nj)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            DramEnergyModel().energy(-1, 0, 0, 0)

    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            DramEnergyParameters(activate_nj=-1)

    def test_total_is_sum(self):
        breakdown = DramEnergyModel().energy(5, 640, 640, 100.0, 2)
        parts = (breakdown.activate_nj + breakdown.read_write_nj
                 + breakdown.offchip_io_nj + breakdown.background_nj)
        assert breakdown.total_nj == pytest.approx(parts)
