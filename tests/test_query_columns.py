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
    ShardedServingCluster,
    form_batch_columns,
    queries_from_traces,
    query_columns_from_traces,
)
from repro.traces import make_production_table_traces

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
