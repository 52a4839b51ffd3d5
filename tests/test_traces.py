"""Tests for repro.traces (trace containers and synthetic generators)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_associative import SetAssociativeCache
from repro.traces.production import (
    ProductionTraceGenerator,
    make_combined_trace,
    make_production_table_traces,
)
from repro.traces.synthetic import (
    batched_requests_from_trace,
    random_trace,
)
from repro.traces.trace import CombinedTrace, EmbeddingTrace


class TestEmbeddingTrace:
    def test_basic_properties(self):
        trace = EmbeddingTrace(table_id=0, indices=[1, 2, 2, 3],
                               num_rows=10, name="T1")
        assert len(trace) == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTrace(table_id=0, indices=[10], num_rows=10)
        with pytest.raises(ValueError):
            EmbeddingTrace(table_id=0, indices=[-1], num_rows=10)

    def test_indices_stored_as_int64(self):
        trace = EmbeddingTrace(table_id=0, indices=(3, 1, 4), num_rows=5)
        assert trace.indices.dtype == np.int64
        assert trace.indices.tolist() == [3, 1, 4]

    def test_rejects_bad_shape_and_row_count(self):
        with pytest.raises(ValueError, match="1-D"):
            EmbeddingTrace(table_id=0, indices=[[1, 2]], num_rows=5)
        with pytest.raises(ValueError, match="num_rows"):
            EmbeddingTrace(table_id=0, indices=[], num_rows=0)

    def test_empty_trace_allowed(self):
        trace = EmbeddingTrace(table_id=0, indices=[], num_rows=5)
        assert len(trace) == 0
        assert EmbeddingTrace(table_id=1, indices=[], num_rows=5).metadata \
            is not trace.metadata


class TestCombinedTrace:
    def test_interleaving_preserves_all_accesses(self):
        traces = [random_trace(50, 10, table_id=i, seed=i) for i in range(3)]
        combined = CombinedTrace(traces)
        pairs = list(combined.interleaved())
        assert len(pairs) == 30
        assert {slot for slot, _ in pairs} == {0, 1, 2}

    def test_round_robin_order(self):
        traces = [
            EmbeddingTrace(table_id=0, indices=[1, 2], num_rows=5),
            EmbeddingTrace(table_id=1, indices=[3, 4], num_rows=5),
        ]
        pairs = CombinedTrace(traces, block_size=1).interleaved()
        assert [slot for slot, _ in pairs] == [0, 1, 0, 1]

    def test_uneven_lengths(self):
        traces = [
            EmbeddingTrace(table_id=0, indices=[1], num_rows=5),
            EmbeddingTrace(table_id=1, indices=[2, 3, 4], num_rows=5),
        ]
        pairs = list(CombinedTrace(traces).interleaved())
        assert len(pairs) == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CombinedTrace([])
        with pytest.raises(ValueError, match="block_size"):
            CombinedTrace([random_trace(5, 4, seed=0)], block_size=0)

    def test_blocks_take_turns(self):
        traces = [
            EmbeddingTrace(table_id=0, indices=[1, 2, 3], num_rows=5),
            EmbeddingTrace(table_id=1, indices=[4, 0], num_rows=5),
        ]
        combined = CombinedTrace(traces, block_size=2)
        assert len(combined.traces) == 2
        assert len(combined) == 5
        assert list(combined.interleaved()) == [
            (0, 1), (0, 2), (1, 4), (1, 0), (0, 3)]

    def test_all_empty_traces_interleave_to_nothing(self):
        combined = CombinedTrace(
            [EmbeddingTrace(table_id=0, indices=[], num_rows=5)])
        assert list(combined.interleaved()) == []

    @given(lengths=st.lists(st.integers(0, 12), min_size=1, max_size=5),
           block=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_interleaving_keeps_each_trace_in_order(self, lengths, block):
        traces = [EmbeddingTrace(table_id=slot,
                                 indices=np.arange(length) % 16,
                                 num_rows=16)
                  for slot, length in enumerate(lengths)]
        pairs = list(CombinedTrace(traces, block_size=block).interleaved())
        assert len(pairs) == sum(lengths)
        for slot, trace in enumerate(traces):
            assert [row for s, row in pairs if s == slot] == \
                trace.indices.tolist()


class TestSyntheticTraces:
    def test_random_trace_low_locality(self):
        trace = random_trace(1_000_000, 20_000, seed=0)
        cache = SetAssociativeCache(8 * 1024 * 1024, associativity=4)
        cache.access_many(trace.indices * 64)
        # The paper: random traces see <5% hit rate.
        assert cache.hit_rate < 0.05

    def test_batched_requests(self):
        trace = random_trace(100, 100, table_id=3, seed=0)
        requests = batched_requests_from_trace(trace, batch_size=4,
                                               pooling_factor=5)
        assert len(requests) == 5
        for request in requests:
            assert request.table_id == 3
            assert request.batch_size == 4
            assert request.total_lookups == 20

    def test_batched_requests_validation(self):
        trace = random_trace(10, 10, seed=0)
        with pytest.raises(ValueError):
            batched_requests_from_trace(trace, 0, 1)


class TestProductionTraces:
    def test_t1_has_more_locality_than_t8(self):
        generator = ProductionTraceGenerator(num_rows=500_000, seed=0)
        t1 = generator.generate_table_trace(0, 15_000)
        t8 = generator.generate_table_trace(7, 15_000)
        cache_t1 = SetAssociativeCache(4 * 1024 * 1024, associativity=4)
        cache_t8 = SetAssociativeCache(4 * 1024 * 1024, associativity=4)
        cache_t1.access_many(t1.indices * 64)
        cache_t8.access_many(t8.indices * 64)
        assert cache_t1.hit_rate > cache_t8.hit_rate

    def test_comb8_hit_rate_in_paper_band(self):
        # Fig. 7(a): Comb-8 on an 8-64 MB cache sees roughly 20-60% hits.
        traces = make_production_table_traces(num_lookups_per_table=8_000,
                                              num_rows=1_000_000, seed=0)
        combined = make_combined_trace(traces)
        cache = SetAssociativeCache(16 * 1024 * 1024, associativity=4)
        for _, row in combined.interleaved():
            cache.access(row * 64)
        assert 0.15 < cache.hit_rate < 0.65

    def test_table_names(self):
        traces = make_production_table_traces(num_lookups_per_table=100,
                                              seed=0)
        assert [t.name for t in traces] == ["T%d" % i for i in range(1, 9)]

    def test_combined_multiplier(self):
        traces = make_production_table_traces(num_lookups_per_table=100,
                                              seed=0)
        combined = make_combined_trace(traces, multiplier=2)
        assert len(combined.traces) == 16
        assert len(combined) == 1600

    def test_table_parameters_monotone(self):
        generator = ProductionTraceGenerator(num_tables=8)
        hot_probabilities = [generator.table_parameters(i)["hot_probability"]
                             for i in range(8)]
        assert hot_probabilities == sorted(hot_probabilities, reverse=True)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProductionTraceGenerator(num_tables=0)
        with pytest.raises(IndexError):
            ProductionTraceGenerator(num_tables=4).table_parameters(4)
        with pytest.raises(ValueError):
            make_combined_trace([], multiplier=0)


class TestTraceProperties:
    @given(num_rows=st.integers(min_value=10, max_value=10_000),
           lookups=st.integers(min_value=1, max_value=2000),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_trace_within_bounds(self, num_rows, lookups, seed):
        trace = random_trace(num_rows, lookups, seed=seed)
        assert len(trace) == lookups
        assert trace.indices.min() >= 0
        assert trace.indices.max() < num_rows

    @given(multiplier=st.integers(min_value=1, max_value=4),
           block=st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_combined_length_scales_with_multiplier(self, multiplier, block):
        traces = make_production_table_traces(num_lookups_per_table=50,
                                              num_rows=10_000, num_tables=4,
                                              seed=1)
        combined = make_combined_trace(traces, multiplier=multiplier,
                                       block_size=block)
        assert len(combined) == 4 * 50 * multiplier
        assert len(list(combined.interleaved())) == len(combined)
