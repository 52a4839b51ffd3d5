"""Tests for repro.core.simulator (the RecNMP cycle simulator)."""

import numpy as np
import pytest

from repro.core.simulator import RecNMPConfig, RecNMPSimulator
from repro.dlrm.operators import SLSRequest

NUM_ROWS = 20_000
VECTOR_BYTES = 128


def _address_of(table_id, row):
    return table_id * NUM_ROWS * VECTOR_BYTES + row * VECTOR_BYTES


def _requests(num_tables=2, batch=4, pooling=16, seed=0, hot=False):
    rng = np.random.default_rng(seed)
    requests = []
    for table in range(num_tables):
        if hot:
            indices = rng.integers(0, 16, size=batch * pooling)
        else:
            indices = rng.integers(0, NUM_ROWS, size=batch * pooling)
        requests.append(SLSRequest(table_id=table, indices=indices,
                                   lengths=np.full(batch, pooling)))
    return requests


def _simulator(**overrides):
    defaults = dict(num_dimms=2, ranks_per_dimm=2,
                    vector_size_bytes=VECTOR_BYTES)
    defaults.update(overrides)
    return RecNMPSimulator(RecNMPConfig(**defaults), address_of=_address_of)


class TestConfig:
    def test_num_ranks(self):
        assert RecNMPConfig(num_dimms=4, ranks_per_dimm=2).num_ranks == 8

    def test_labels(self):
        assert RecNMPConfig(use_rank_cache=False).label().endswith(
            "RecNMP-base")
        assert RecNMPConfig().label().endswith("RecNMP-opt")
        assert RecNMPConfig(
            enable_hot_entry_profiling=False).label().endswith("RecNMP-sched")
        assert RecNMPConfig(
            scheduling_policy="fcfs").label().endswith("RecNMP-cache")

    def test_validation(self):
        with pytest.raises(ValueError):
            RecNMPConfig(rank_assignment="striped")
        with pytest.raises(ValueError):
            RecNMPConfig(num_dimms=0)

    def test_numpy_integer_fields_simulate_like_python_ints(self):
        plain = _simulator(poolings_per_packet=4, hot_entry_threshold=2)
        numpy = _simulator(poolings_per_packet=np.int64(4),
                           hot_entry_threshold=np.int32(2))
        requests = _requests(hot=True)
        expected = plain.run_requests(requests, compare_baseline=False)
        result = numpy.run_requests(requests, compare_baseline=False)
        assert result.num_packets == expected.num_packets
        assert result.total_cycles == expected.total_cycles
        assert result.per_packet_cycles == expected.per_packet_cycles


class TestSimulation:
    def test_result_accounting(self):
        simulator = _simulator()
        result = simulator.run_requests(_requests(), compare_baseline=False)
        assert result.num_instructions == 2 * 4 * 16
        assert result.total_cycles > 0
        assert sum(result.rank_load) == result.num_instructions
        assert 0 < result.load_imbalance <= 1.0
        assert len(result.per_packet_cycles) == result.num_packets
        assert min(result.per_packet_cycles) > 0

    def test_result_records_kernel_flavor(self):
        from repro.core import kernels
        simulator = _simulator()
        result = simulator.run_requests(_requests(), compare_baseline=False)
        assert result.kernel_flavor == kernels.active_flavor()

    def test_speedup_vs_baseline_positive(self):
        simulator = _simulator()
        result = simulator.run_requests(_requests())
        assert result.baseline_cycles > 0
        assert result.speedup_vs_baseline > 0

    def test_more_ranks_faster(self):
        small = _simulator(num_dimms=1, ranks_per_dimm=2)
        large = _simulator(num_dimms=4, ranks_per_dimm=2)
        cycles_small = small.run_requests(
            _requests(seed=1), compare_baseline=False).total_cycles
        cycles_large = large.run_requests(
            _requests(seed=1), compare_baseline=False).total_cycles
        assert cycles_large < cycles_small

    def test_hot_trace_has_high_cache_hit_rate(self):
        simulator = _simulator()
        result = simulator.run_requests(_requests(hot=True, seed=2),
                                        compare_baseline=False)
        assert result.cache_hit_rate > 0.5

    def test_cache_helps_hot_traces(self):
        with_cache = _simulator(use_rank_cache=True)
        without_cache = _simulator(use_rank_cache=False)
        hot_requests = _requests(hot=True, seed=3)
        cycles_cache = with_cache.run_requests(
            hot_requests, compare_baseline=False).total_cycles
        cycles_plain = without_cache.run_requests(
            hot_requests, compare_baseline=False).total_cycles
        assert cycles_cache < cycles_plain

    def test_page_coloring_balances_load(self):
        address_mode = _simulator(rank_assignment="address",
                                  num_dimms=4, ranks_per_dimm=2)
        colored = _simulator(rank_assignment="page-coloring",
                             num_dimms=4, ranks_per_dimm=2)
        requests = _requests(num_tables=8, seed=4)
        imbalance_address = address_mode.run_requests(
            requests, compare_baseline=False).load_imbalance
        imbalance_colored = colored.run_requests(
            requests, compare_baseline=False).load_imbalance
        assert imbalance_colored <= imbalance_address + 0.05

    def test_energy_reported_and_positive(self):
        simulator = _simulator()
        result = simulator.run_requests(_requests(seed=5))
        assert result.energy_nj > 0
        assert result.baseline_energy_nj > 0
        assert result.energy_savings_fraction > 0

    def test_reset_clears_state(self):
        simulator = _simulator()
        simulator.run_requests(_requests(seed=7), compare_baseline=False)
        simulator.reset()
        stats = simulator.channel.aggregate_stats()
        assert stats["instructions"] == 0

    def test_reset_clears_packet_generator_state(self):
        """reset() must also restart the generator's packet ids."""
        simulator = _simulator()
        simulator.run_requests(_requests(seed=7), compare_baseline=False)
        assert simulator.packet_generator._packet_counter > 0
        simulator.reset()
        assert simulator.packet_generator._packet_counter == 0

    def test_reset_makes_runs_reproducible(self):
        """A reset simulator reproduces a fresh simulator's result."""
        requests = _requests(seed=9)
        fresh = _simulator().run_requests(requests, compare_baseline=False)
        reused = _simulator()
        reused.run_requests(_requests(seed=10), compare_baseline=False)
        reused.reset()
        again = reused.run_requests(requests, compare_baseline=False)
        assert again.total_cycles == fresh.total_cycles
        assert again.cache_hit_rate == pytest.approx(fresh.cache_hit_rate)
        assert again.num_packets == fresh.num_packets

    def test_per_source_submission(self):
        simulator = _simulator()
        requests = _requests(num_tables=4, seed=8)
        result = simulator.run_requests(
            requests, compare_baseline=False,
            per_source_submission=[requests[:2], requests[2:]])
        assert result.num_instructions == 4 * 4 * 16
