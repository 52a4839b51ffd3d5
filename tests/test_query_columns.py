"""The array-backed query path must mirror the object path exactly.

:mod:`repro.serving.query_columns` re-expresses ``ServingQuery`` lists
and the per-query batching loop (``queue_oracles.form_batches``) as
struct-of-arrays; the contract is *byte identity* -- same ids, arrivals,
fingerprints, batch boundaries and, end to end, the same
``ServingReport`` out of
``ShardedServingCluster.simulate`` -- because every consumer (service
cache keys, SLO accounting, the event engines) is keyed on those values.
"""

import dataclasses

import numpy as np
import pytest

import queue_oracles
from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    BatchingFrontend,
    FixedSLOPolicy,
    PoissonArrivalProcess,
    QueryColumns,
    QueryStream,
    ServingQuery,
    ShardedServingCluster,
    form_batch_columns,
    queries_from_traces,
    query_columns_from_traces,
)
from repro.traces import EmbeddingTrace, make_production_table_traces

NUM_QUERIES = 600
RATE_QPS = 120_000.0


@pytest.fixture(scope="module")
def traces():
    return make_production_table_traces(num_lookups_per_table=640,
                                        num_rows=4000, num_tables=4,
                                        seed=0)


def _arrivals(seed=1):
    return PoissonArrivalProcess(rate_qps=RATE_QPS, seed=seed)


@pytest.fixture(scope="module")
def object_queries(traces):
    return queries_from_traces(traces, NUM_QUERIES, _arrivals())


@pytest.fixture(scope="module")
def columns(traces):
    return query_columns_from_traces(traces, NUM_QUERIES, _arrivals())


class TestConstruction:
    def test_matches_object_queries(self, object_queries, columns):
        assert len(columns) == len(object_queries)
        assert columns.query_id.tolist() == \
            [query.query_id for query in object_queries]
        assert columns.arrival_us.tolist() == \
            [query.arrival_us for query in object_queries]
        assert np.isnan(columns.deadline_us).all()
        assert all(query.deadline_us is None for query in object_queries)
        assert list(columns.provider.fingerprints_for(columns.rows)) == \
            [query.fingerprint() for query in object_queries]
        assert columns.lookups.tolist() == \
            [query.total_lookups for query in object_queries]
        assert columns.num_requests.tolist() == \
            [len(query.requests) for query in object_queries]

    def test_from_queries_round_trip(self, object_queries):
        columns = QueryColumns.from_queries(object_queries)
        assert np.array_equal(
            columns.arrival_us,
            np.array([q.arrival_us for q in object_queries]))
        assert list(columns.provider.fingerprints_for(columns.rows)) == \
            [q.fingerprint() for q in object_queries]

    def test_provider_serves_row_requests(self, object_queries,
                                          columns):
        requests = columns.provider.row_requests(int(columns.rows[7]))
        assert len(requests) == len(object_queries[7].requests)
        assert [r.table_id for r in requests] == \
            [r.table_id for r in object_queries[7].requests]

    def test_take_and_slice(self, columns):
        picked = columns.take(np.array([3, 5, 11]))
        assert picked.query_id.tolist() == \
            columns.query_id[[3, 5, 11]].tolist()
        window = columns.slice(10, 20)
        assert len(window) == 10
        assert window.query_id[0] == columns.query_id[10]

    def test_concat_preserves_order_and_fingerprints(self, columns):
        merged = QueryColumns.concat([columns.slice(0, 100),
                                      columns.slice(100, len(columns))])
        assert np.array_equal(merged.arrival_us, columns.arrival_us)
        assert list(merged.provider.fingerprints_for(merged.rows)) == list(columns.provider.fingerprints_for(columns.rows))


class TestBatching:
    @pytest.mark.parametrize("max_delay_us", [0.0, 100.0, 1e9])
    @pytest.mark.parametrize("source", ["columns", "list"])
    def test_batch_boundaries_match_oracle(
            self, object_queries, columns, max_delay_us, source):
        frontend = BatchingFrontend(max_queries=8,
                                    max_delay_us=max_delay_us)
        object_batches = queue_oracles.form_batches(
            object_queries, 8, max_delay_us)
        if source == "columns":
            batch_columns, carry = frontend.form_batch_columns(columns)
            assert carry is None
        else:
            batch_columns = frontend.form_batches(object_queries[::-1])
        assert len(batch_columns) == len(object_batches)
        assert [column.tolist() for column in batch_columns.totals()] == [
            [sum(len(q.requests) for q in batch.queries)
             for batch in object_batches],
            [sum(len(r.lengths) for q in batch.queries for r in q.requests)
             for batch in object_batches],
            [sum(q.total_lookups for q in batch.queries)
             for batch in object_batches]]
        for object_batch, column_batch in zip(object_batches,
                                              batch_columns):
            assert column_batch.size == len(object_batch.queries)
            assert column_batch.open_us == object_batch.open_us
            assert column_batch.formed_us == object_batch.formed_us
            assert column_batch.trigger == object_batch.trigger
            assert column_batch.query_fingerprints() == \
                [q.fingerprint() for q in object_batch.queries]
            assert column_batch.columns.query_id[
                column_batch.start:column_batch.stop].tolist() == \
                [q.query_id for q in object_batch.queries]

    def test_carry_plus_final_matches_oneshot(self, columns):
        formed_head, carry = form_batch_columns(
            columns.slice(0, 300), max_queries=8, max_delay_us=100.0,
            final=False)
        tail = columns.slice(300, len(columns))
        if carry is not None:
            tail = QueryColumns.concat([carry, tail])
        formed_tail, leftover = form_batch_columns(
            tail, max_queries=8, max_delay_us=100.0, final=True)
        assert leftover is None
        oneshot, _ = form_batch_columns(columns, max_queries=8,
                                        max_delay_us=100.0, final=True)
        assert list(formed_head.sizes) + list(formed_tail.sizes) == \
            list(oneshot.sizes)
        assert np.array_equal(
            np.concatenate([formed_head.formed_us, formed_tail.formed_us]),
            oneshot.formed_us)


class TestClusterEquivalence:
    @pytest.mark.parametrize("engine", ["analytic", "event", "event-edf"])
    @pytest.mark.parametrize("slo,admission", [
        (None, None),
        (FixedSLOPolicy(1_000.0), None),
        (FixedSLOPolicy(400.0), "token-bucket"),
    ])
    def test_simulate_columns_identical_to_objects(self, traces, engine,
                                                   slo, admission):
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            object_report = cluster.simulate(
                queries_from_traces(traces, NUM_QUERIES, _arrivals()),
                engine=engine, slo_policy=slo, admission=admission)
            column_report = cluster.simulate(
                query_columns_from_traces(traces, NUM_QUERIES,
                                          _arrivals()),
                engine=engine, slo_policy=slo, admission=admission)
        assert dataclasses.asdict(column_report) == \
            dataclasses.asdict(object_report)

    def test_interpolating_model_identical(self, traces):
        model = InterpolatingServiceModel(traces)
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            object_report = cluster.simulate(
                queries_from_traces(traces, NUM_QUERIES, _arrivals()),
                engine="event", service_model=model)
            column_report = cluster.simulate(
                query_columns_from_traces(traces, NUM_QUERIES,
                                          _arrivals()),
                engine="event", service_model=model)
        assert dataclasses.asdict(column_report) == \
            dataclasses.asdict(object_report)

    def test_estimate_query_service_us_identical(self, traces):
        with ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt") as cluster:
            from_objects = cluster.estimate_query_service_us(
                queries_from_traces(traces, 64, _arrivals()))
            from_columns = cluster.estimate_query_service_us(
                query_columns_from_traces(traces, 64, _arrivals()))
        assert from_columns == from_objects


class _RawTrace:
    """A trace-shaped object without :class:`EmbeddingTrace`'s checks."""

    def __init__(self, indices, table_id=0, name="raw"):
        self.indices = np.asarray(indices)
        self.table_id = table_id
        self.name = name

    def __len__(self):
        return len(self.indices)


def _stream_columns(traces, **shape):
    return QueryStream(traces, _arrivals(), num_queries=8, **shape)


def _oneshot_columns(traces, **shape):
    return query_columns_from_traces(traces, 8, _arrivals(), **shape)


BUILDERS = pytest.mark.parametrize(
    "build", [_stream_columns, _oneshot_columns], ids=["stream", "oneshot"])


class TestTraceProvider:
    @BUILDERS
    @pytest.mark.parametrize("shape,name", [
        ({"batch_size": 2.7, "pooling_factor": 3.9}, "batch_size"),
        ({"batch_size": 4.0}, "batch_size"),
        ({"pooling_factor": 3.9}, "pooling_factor"),
        ({"batch_size": [4, 4, 2.5, 4]}, "batch_size"),
        ({"pooling_factor": [20, 20, 20, np.float64(20)]},
         "pooling_factor"),
    ])
    def test_non_integer_shape_rejected(self, traces, build, shape, name):
        with pytest.raises(ValueError,
                           match="^%s must be an integer or one per "
                                 "trace, got " % name):
            build(traces, **shape)

    @BUILDERS
    def test_numpy_integer_shapes_accepted(self, traces, build):
        plain = build(traces, batch_size=2, pooling_factor=[5, 5, 3, 5])
        numpy_ints = build(traces, batch_size=np.int64(2),
                           pooling_factor=np.array([5, 5, 3, 5]))
        if isinstance(plain, QueryStream):
            plain, numpy_ints = plain.take(8), numpy_ints.take(8)
        assert plain.lookups.tolist() == numpy_ints.lookups.tolist() \
            == [36] * 8
        assert plain.poolings.tolist() == [8] * 8
        assert plain.provider.fingerprints_for(plain.rows) == \
            numpy_ints.provider.fingerprints_for(numpy_ints.rows)

    @BUILDERS
    def test_trace_too_short_raises_at_construction(self, traces, build):
        short = _RawTrace(np.arange(79), name="short")
        with pytest.raises(ValueError) as error:
            build([traces[0], short], batch_size=4, pooling_factor=20)
        assert str(error.value) == \
            "trace 'short' too short for one 4x20 request"

    @BUILDERS
    @pytest.mark.parametrize("shape", [{"batch_size": 0},
                                       {"pooling_factor": -1},
                                       {"pooling_factor": [20, 20, 0, 20]}])
    def test_non_positive_shape_raises_at_construction(self, traces, build,
                                                       shape):
        with pytest.raises(ValueError) as error:
            build(traces, **shape)
        assert str(error.value) == \
            "batch_size and pooling_factor must be positive"

    @BUILDERS
    @pytest.mark.parametrize("bad,message", [
        (-5, "indices must be non-negative integers, got indices[1]=-5"),
        (2.5, "indices must be non-negative integers, got indices[1]=2.5"),
    ])
    def test_rejected_index_raises_at_construction(self, build, bad,
                                                   message):
        # Lookup 5 is the second lookup of the trace's second 2x2
        # candidate; the error is that candidate's own.  The tail
        # lookup past the last whole candidate is never used.
        indices = [0, 1, 2, 3, 4, bad, 6, 7, -1]
        with pytest.raises(ValueError) as error:
            build([_RawTrace(indices)], batch_size=2, pooling_factor=2)
        assert str(error.value) == message
        build([_RawTrace(indices[:4] + [4, 5, 6, 7, -1])], batch_size=2,
              pooling_factor=2)

    def test_fingerprints_beyond_the_digest_period(self):
        # Candidate counts 257 and 263 repeat with period 67,591, above
        # the 65,536 cap, so digests are keyed by residue pattern.
        rng = np.random.default_rng(3)
        traces = [EmbeddingTrace(table_id=table, num_rows=1000,
                                 indices=rng.integers(0, 1000, size=count),
                                 name="T%d" % table)
                  for table, count in enumerate((257, 263))]
        columns = query_columns_from_traces(traces, 8, _arrivals(),
                                            batch_size=1, pooling_factor=1)
        provider = columns.provider
        assert provider.period == 0
        rows = np.array([0, 1, 256, 257, 263, 67_590, 67_591, 67_848, 0])
        digests = provider.fingerprints_for(rows)
        assert digests == [
            ServingQuery(query_id=0, arrival_us=0.0,
                         requests=provider.row_requests(int(row)))
            .fingerprint() for row in rows]
        assert digests[6] == digests[0] and digests[7] == digests[3]
        assert len(set(digests)) == 6
