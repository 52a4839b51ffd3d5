"""Integration tests: qualitative claims of the paper, end to end.

These tests wire the full pipeline together on reduced-size workloads (small
tables, short traces) and check the *shape* of the paper's results: rank
scaling, the benefit of the memory-side cache and its co-optimisations, the
ordering of RecNMP against the prior NMP baselines, and the end-to-end
speedup composition.
"""

import numpy as np
import pytest

from repro.cache.set_associative import SetAssociativeCache
from repro.core.simulator import RecNMPConfig, RecNMPSimulator
from repro.dlrm.config import RM2_LARGE
from repro.dlrm.embedding import EmbeddingBag
from repro.dlrm.model import DLRMModel
from repro.dlrm.config import scaled_config, RM1_SMALL
from repro.dlrm.operators import SLSRequest, sparse_lengths_sum
from repro.perf.end_to_end import EndToEndModel
from repro.systems import build_system
from repro.traces.production import (
    make_combined_trace,
    make_production_table_traces,
)
from repro.traces.synthetic import batched_requests_from_trace, random_trace

NUM_ROWS = 20_000
VECTOR_BYTES = 128


def _address_of(table_id, row):
    return table_id * NUM_ROWS * VECTOR_BYTES + row * VECTOR_BYTES


def _requests_from_traces(traces, batch=4, pooling=16):
    requests = []
    for trace in traces:
        requests.extend(batched_requests_from_trace(trace, batch, pooling)[:1])
    return requests


def _production_requests(seed=0, num_tables=4, batch=4, pooling=16):
    traces = make_production_table_traces(
        num_lookups_per_table=batch * pooling, num_rows=NUM_ROWS,
        num_tables=num_tables, seed=seed)
    return _requests_from_traces(traces, batch, pooling)


def _random_requests(seed=0, num_tables=4, batch=4, pooling=16):
    traces = [random_trace(NUM_ROWS, batch * pooling, table_id=i,
                           seed=seed + i) for i in range(num_tables)]
    return _requests_from_traces(traces, batch, pooling)


def _run(config_kwargs, requests):
    config = RecNMPConfig(vector_size_bytes=VECTOR_BYTES, **config_kwargs)
    simulator = RecNMPSimulator(config, address_of=_address_of)
    return simulator.run_requests(requests)


class TestRankScaling:
    """Fig. 14(a): SLS latency scales with the number of active ranks."""

    @pytest.mark.parametrize("small,large", [
        (dict(num_dimms=1, ranks_per_dimm=2),
         dict(num_dimms=2, ranks_per_dimm=2)),
        (dict(num_dimms=2, ranks_per_dimm=2),
         dict(num_dimms=4, ranks_per_dimm=2)),
    ])
    def test_more_ranks_lower_latency(self, small, large):
        requests = _random_requests(seed=1)
        cycles_small = _run({**small, "use_rank_cache": False},
                            requests).total_cycles
        cycles_large = _run({**large, "use_rank_cache": False},
                            requests).total_cycles
        assert cycles_large < cycles_small

    def test_8_rank_base_speedup_in_paper_band(self):
        # Paper: 8-rank RecNMP-base reaches 3.37-7.35x over the DRAM baseline.
        result = _run(dict(num_dimms=4, ranks_per_dimm=2,
                           use_rank_cache=False), _random_requests(seed=2))
        assert 2.5 < result.speedup_vs_baseline < 8.5

    def test_page_coloring_reduces_imbalance(self):
        requests = _random_requests(seed=3, num_tables=8)
        address = _run(dict(num_dimms=4, ranks_per_dimm=2,
                            rank_assignment="address"), requests)
        colored = _run(dict(num_dimms=4, ranks_per_dimm=2,
                            rank_assignment="page-coloring"), requests)
        assert colored.load_imbalance <= address.load_imbalance + 0.02


class TestOptimizationLadder:
    """Fig. 15(a): base -> +cache -> +schedule -> +profile improves latency."""

    def test_cache_and_optimizations_help_production_traces(self):
        requests = _production_requests(seed=4, batch=4, pooling=32)
        base = _run(dict(num_dimms=4, ranks_per_dimm=2,
                         use_rank_cache=False), requests)
        cache = _run(dict(num_dimms=4, ranks_per_dimm=2, use_rank_cache=True,
                          scheduling_policy="fcfs",
                          enable_hot_entry_profiling=False), requests)
        optimised = _run(dict(num_dimms=4, ranks_per_dimm=2,
                              use_rank_cache=True,
                              scheduling_policy="table-aware",
                              enable_hot_entry_profiling=True), requests)
        assert cache.total_cycles <= base.total_cycles
        assert optimised.total_cycles <= cache.total_cycles * 1.05
        assert optimised.speedup_vs_baseline > base.speedup_vs_baseline

    def test_production_traces_beat_random_traces_with_cache(self):
        # Fig. 16 (shaded): RecNMP-opt extracts extra performance from the
        # locality of production traces, unlike the cache-less baselines.
        config = dict(num_dimms=4, ranks_per_dimm=2, use_rank_cache=True)
        production = _run(config, _production_requests(seed=5, pooling=32))
        random_result = _run(config, _random_requests(seed=5, pooling=32))
        assert production.cache_hit_rate > random_result.cache_hit_rate
        assert production.speedup_vs_baseline > \
            random_result.speedup_vs_baseline


class TestBaselineOrdering:
    """Fig. 16: RecNMP-opt > TensorDIMM > Chameleon at equal DIMM count."""

    def test_ordering_at_4x2(self):
        # Use a full-size packet (8 poolings x 40 lookups) so the per-packet
        # overheads are amortised the way the paper's workloads amortise them.
        requests = _production_requests(seed=6, batch=8, pooling=40)
        recnmp = _run(dict(num_dimms=4, ranks_per_dimm=2), requests)
        tensordimm, chameleon = (
            build_system(name, num_dimms=4, ranks_per_dimm=2,
                         vector_size_bytes=VECTOR_BYTES,
                         address_of=_address_of).run(requests)
            for name in ("tensordimm", "chameleon"))
        assert recnmp.speedup_vs_baseline > \
            tensordimm.speedup_vs_baseline > \
            chameleon.speedup_vs_baseline > 1.0
        # Both are grounded on the DDR4 baseline the RecNMP run compares
        # against.
        assert tensordimm.baseline_cycles == chameleon.baseline_cycles == \
            recnmp.baseline_cycles

    def test_rank_level_scaling_beats_dimm_level(self):
        # Increasing ranks per DIMM helps RecNMP but not the DIMM-level
        # baselines.
        recnmp_1x2 = _run(dict(num_dimms=1, ranks_per_dimm=2),
                          _production_requests(seed=7, pooling=32))
        recnmp_1x4 = _run(dict(num_dimms=1, ranks_per_dimm=4),
                          _production_requests(seed=7, pooling=32))
        assert recnmp_1x4.total_cycles < recnmp_1x2.total_cycles
        requests = _production_requests(seed=7, pooling=32)
        tensordimm_1x2, tensordimm_1x4 = (
            build_system("tensordimm", num_dimms=1, ranks_per_dimm=ranks,
                         vector_size_bytes=VECTOR_BYTES,
                         address_of=_address_of).run(requests)
            for ranks in (2, 4))
        assert tensordimm_1x4.speedup_vs_baseline == \
            tensordimm_1x2.speedup_vs_baseline


class TestEnergyAndEndToEnd:
    def test_memory_energy_savings_in_paper_ballpark(self):
        # Paper headline: 45.8% memory energy savings.
        result = _run(dict(num_dimms=4, ranks_per_dimm=2),
                      _production_requests(seed=8, pooling=32))
        assert 0.25 < result.energy_savings_fraction < 0.75

    def test_end_to_end_speedup_composition(self):
        # Feeding the simulated SLS speedup into the end-to-end model gives
        # a throughput improvement comparable to the paper's 4.2x headline.
        sls = _run(dict(num_dimms=4, ranks_per_dimm=2),
                   _production_requests(seed=9, pooling=32))
        model = EndToEndModel()
        end_to_end = model.speedup(RM2_LARGE, 256,
                                   sls_speedup=sls.speedup_vs_baseline)
        assert 1.5 < end_to_end.end_to_end_speedup < 7.0
        assert end_to_end.end_to_end_speedup < sls.speedup_vs_baseline


class TestLocalityCharacterisation:
    """Section II-F: production traces show temporal, not spatial, locality."""

    def test_hit_rate_grows_with_cache_size(self):
        traces = make_production_table_traces(num_lookups_per_table=4000,
                                              num_rows=1_000_000, seed=10)
        combined = make_combined_trace(traces)
        accesses = [row * 64 for _, row in combined.interleaved()]
        hit_rates = []
        for capacity_mb in (8, 32):
            cache = SetAssociativeCache(capacity_mb * 1024 * 1024,
                                        associativity=4)
            cache.access_many(accesses)
            hit_rates.append(cache.hit_rate)
        assert hit_rates[1] >= hit_rates[0]
        assert hit_rates[0] > 0.1

    def test_random_trace_hit_rate_below_5_percent(self):
        trace = random_trace(1_000_000, 30_000, seed=11)
        cache = SetAssociativeCache(16 * 1024 * 1024, associativity=4)
        cache.access_many(trace.indices * 64)
        assert cache.hit_rate < 0.05

    def test_no_spatial_locality(self):
        # Fig. 7(b): growing the cacheline size does not help (capacity is
        # wasted on never-used neighbours).
        traces = make_production_table_traces(num_lookups_per_table=4000,
                                              num_rows=1_000_000, seed=12)
        combined = make_combined_trace(traces)
        accesses = [row * 256 for _, row in combined.interleaved()]
        small_lines = SetAssociativeCache(16 * 1024 * 1024,
                                          line_size_bytes=64,
                                          associativity=4)
        large_lines = SetAssociativeCache(16 * 1024 * 1024,
                                          line_size_bytes=512,
                                          associativity=4)
        small_lines.access_many(accesses)
        large_lines.access_many(accesses)
        assert large_lines.hit_rate <= small_lines.hit_rate + 0.02


class TestFunctionalCorrectness:
    """The NMP datapath's pooling semantics match the NumPy SLS reference."""

    def test_dlrm_model_with_production_indices_runs(self):
        config = scaled_config(RM1_SMALL, num_embedding_tables=2)
        model = DLRMModel(config, rows_override=512, seed=0)
        traces = make_production_table_traces(num_lookups_per_table=160,
                                              num_rows=512, num_tables=2,
                                              seed=13)
        dense, requests = model.random_inputs(
            4, pooling_factor=8,
            index_sampler=lambda table, count: traces[table].indices[:count])
        output = model.forward(dense, requests)
        assert output.predictions.shape == (4,)
        assert np.isfinite(output.predictions).all()

    def test_psum_accumulation_counts_match_pooling_sizes(self):
        # Every vector of every pooling carries its pooling's PsumTag and
        # reaches a rank-NMP exactly once.
        from repro.core.packet_generator import (
            PacketGenerator,
            PacketGeneratorConfig,
        )
        from repro.core.processing_unit import RecNMPChannel

        rng = np.random.default_rng(14)
        request = SLSRequest(table_id=0,
                             indices=rng.integers(0, NUM_ROWS, size=48),
                             lengths=np.full(6, 8))
        generator = PacketGenerator(
            PacketGeneratorConfig(poolings_per_packet=8,
                                  enable_hot_entry_profiling=False),
            address_of=_address_of)
        [packet] = generator.packets_for_requests([request])
        assert np.bincount(packet.instructions.psum_tags).tolist() == [8] * 6
        channel = RecNMPChannel(num_dimms=1, ranks_per_dimm=2)
        channel.execute_packet(packet)
        assert channel.aggregate_stats()["instructions"] == 48

    def test_embedding_bag_lookup_equals_reference(self):
        bag = EmbeddingBag(num_tables=1, num_rows=64, embedding_dim=8, seed=5)
        indices = np.array([1, 5, 9, 1, 33, 7])
        lengths = np.array([3, 3])
        request = SLSRequest(table_id=0, indices=indices, lengths=lengths)
        output = bag.forward([request])[0]
        expected = sparse_lengths_sum(bag[0].weights, indices, lengths)
        np.testing.assert_allclose(output, expected, rtol=1e-6)
