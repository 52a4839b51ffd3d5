"""Tests for the unified EmbeddingSystem interface and registry."""

import numpy as np
import pytest

from repro.core.multi_channel import MultiChannelRecNMP
from repro.core.simulator import RecNMPConfig, RecNMPSimulator
from repro.dlrm.operators import SLSRequest
from repro.dram.system import DramSystemConfig
from repro.perf.baseline_cache import run_baseline_trace
from repro.systems import (
    SystemResult,
    TableLayout,
    available_systems,
    build_system,
    register_system,
    system_description,
)

NUM_ROWS = 512
VECTOR_BYTES = 64


def address_of(table_id, row):
    return (table_id * NUM_ROWS + row) * VECTOR_BYTES


def tiny_requests(num_tables=4, batch=2, pooling=4, seed=0):
    rng = np.random.default_rng(seed)
    requests = []
    for table in range(num_tables):
        indices = rng.integers(0, NUM_ROWS, size=batch * pooling)
        requests.append(SLSRequest(table_id=table, indices=indices,
                                   lengths=np.full(batch, pooling)))
    return requests


def build(name, **overrides):
    overrides.setdefault("address_of", address_of)
    overrides.setdefault("vector_size_bytes", VECTOR_BYTES)
    return build_system(name, **overrides)


class TestRegistry:
    def test_builtin_names_registered(self):
        names = available_systems()
        for expected in ("host", "tensordimm", "chameleon", "recnmp-base",
                         "recnmp-cache", "recnmp-sched", "recnmp-opt",
                         "recnmp-opt-4ch"):
            assert expected in names

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="recnmp-opt"):
            build_system("no-such-system")

    def test_descriptions_exist(self):
        for name in available_systems():
            assert system_description(name)

    def test_register_custom_system(self):
        from repro.systems.registry import _REGISTRY
        register_system("custom-recnmp", type(build("recnmp-opt")),
                        description="custom", use_rank_cache=False,
                        scheduling_policy="fcfs",
                        enable_hot_entry_profiling=False)
        try:
            system = build("custom-recnmp")
            assert system.config.use_rank_cache is False
            result = system.run(tiny_requests())
            assert result.total_cycles > 0
        finally:
            _REGISTRY.pop("custom-recnmp", None)

    def test_every_registered_system_runs(self):
        requests = tiny_requests()
        for name in available_systems():
            result = build(name).run(requests)
            assert isinstance(result, SystemResult)
            assert result.system == name
            assert result.total_cycles > 0
            assert result.latency_ns > 0
            assert result.num_requests == len(requests)
            assert result.num_lookups == sum(r.total_lookups
                                             for r in requests)
            assert result.speedup_vs_baseline > 0
            payload = result.as_dict()
            assert payload["system"] == name
            assert "raw" not in payload

    def test_overrides_are_applied(self):
        system = build("recnmp-opt", num_dimms=2, ranks_per_dimm=4)
        assert system.config.num_dimms == 2
        assert system.config.ranks_per_dimm == 4


class TestLegacyEquivalence:
    """Registry-built systems reproduce the simulators they wrap."""

    def test_recnmp_matches_legacy_simulator(self):
        requests = tiny_requests()
        config = RecNMPConfig(num_dimms=2, ranks_per_dimm=2,
                              vector_size_bytes=VECTOR_BYTES)
        legacy = RecNMPSimulator(config, address_of=address_of)
        legacy_result = legacy.run_requests(requests)
        system = build("recnmp-opt", num_dimms=2, ranks_per_dimm=2)
        result = system.run(requests)
        assert result.total_cycles == legacy_result.total_cycles
        assert result.baseline_cycles == legacy_result.baseline_cycles
        assert result.speedup_vs_baseline == \
            pytest.approx(legacy_result.speedup_vs_baseline)
        assert result.cache_hit_rate == \
            pytest.approx(legacy_result.cache_hit_rate)
        assert result.energy_nj == pytest.approx(legacy_result.energy_nj)
        assert result.raw.num_packets == legacy_result.num_packets

    def test_host_matches_ddr4_trace(self):
        requests = tiny_requests()
        addresses = [address_of(r.table_id, int(row))
                     for r in requests for row in r.indices]
        config = DramSystemConfig(num_channels=1, dimms_per_channel=4,
                                  ranks_per_dimm=2)
        trace_result = run_baseline_trace(config, addresses,
                                          request_bytes=VECTOR_BYTES,
                                          use_cache=False)
        result = build("host").run(requests)
        assert result.total_cycles == trace_result.cycles
        assert result.latency_ns == pytest.approx(
            trace_result.cycles * config.timing.cycle_time_ns)
        assert result.energy_nj == pytest.approx(trace_result.energy_nj)
        assert result.raw.as_dict() == trace_result.as_dict()
        assert result.speedup_vs_baseline == 1.0

    def test_multichannel_matches_legacy_coordinator(self):
        requests = tiny_requests(num_tables=6)
        config = RecNMPConfig(vector_size_bytes=VECTOR_BYTES)
        legacy = MultiChannelRecNMP(num_channels=2, channel_config=config,
                                    address_of=address_of, max_workers=1)
        legacy_result = legacy.run_requests(requests)
        result = build("recnmp-opt-4ch", num_channels=2).run(requests)
        assert result.total_cycles == legacy_result.total_cycles
        assert result.extras["per_channel_cycles"] == \
            legacy_result.per_channel_cycles
        assert result.speedup_vs_baseline == \
            pytest.approx(legacy_result.speedup_vs_baseline)

    def test_concurrent_channels_match_sequential(self):
        requests = tiny_requests(num_tables=6)
        config = RecNMPConfig(vector_size_bytes=VECTOR_BYTES)
        sequential = MultiChannelRecNMP(
            num_channels=3, channel_config=config, address_of=address_of,
            max_workers=1).run_requests(requests)
        concurrent = MultiChannelRecNMP(
            num_channels=3, channel_config=config,
            address_of=address_of).run_requests(requests)
        assert concurrent.total_cycles == sequential.total_cycles
        assert concurrent.per_channel_cycles == \
            sequential.per_channel_cycles
        assert concurrent.energy_nj == pytest.approx(sequential.energy_nj)

    def test_tensordimm_scales_with_dimms_only(self):
        requests = tiny_requests()
        one = build("tensordimm", num_dimms=1, ranks_per_dimm=2)
        four = build("tensordimm", num_dimms=4, ranks_per_dimm=2)
        more_ranks = build("tensordimm", num_dimms=1, ranks_per_dimm=4)
        assert four.run(requests).speedup_vs_baseline == \
            pytest.approx(4 * one.run(requests).speedup_vs_baseline)
        assert more_ranks.run(requests).speedup_vs_baseline == \
            pytest.approx(one.run(requests).speedup_vs_baseline)


class TestSystemBehaviour:
    def test_run_is_order_independent(self):
        """Repeated run() calls reproduce the fresh-simulator result."""
        requests_a = tiny_requests(seed=0)
        requests_b = tiny_requests(seed=1)
        system = build("recnmp-opt")
        fresh = build("recnmp-opt").run(requests_b)
        system.run(requests_a)
        reused = system.run(requests_b)
        assert reused.total_cycles == fresh.total_cycles
        assert reused.cache_hit_rate == pytest.approx(fresh.cache_hit_rate)

    def test_default_layout_used_without_address_of(self):
        requests = tiny_requests(num_tables=2)
        system = build_system("recnmp-opt", vector_size_bytes=VECTOR_BYTES,
                              table_rows=NUM_ROWS)
        result = system.run(requests)
        assert result.total_cycles > 0

    def test_table_layout_addresses(self):
        layout = TableLayout(num_rows=100, vector_bytes=64)
        assert layout.address_of(0, 0) == 0
        assert layout.address_of(0, 1) == 64
        assert layout.address_of(2, 3) == (2 * 100 + 3) * 64
        with pytest.raises(ValueError):
            TableLayout(num_rows=0)
        with pytest.raises(ValueError):
            TableLayout(vector_bytes=100)

