"""Tests for the request-level serving subsystem."""

import math

import numpy as np
import pytest

from queue_oracles import QueryBatch, batch_columns
from repro.dlrm.operators import SLSRequest
from repro.serving import (
    BatchingFrontend,
    PoissonArrivalProcess,
    ServingQuery,
    ShardedServingCluster,
    TableSharder,
    TraceReplayArrivalProcess,
    mgc_mean_wait_us,
    mgc_utilization,
    percentile,
    qps_sweep,
    queries_from_traces,
    summarize_serving,
    wait_quantile_us,
)
from repro.serving.sharding import partition_by_assignment
from repro.traces import make_production_table_traces

NUM_ROWS = 512
VECTOR_BYTES = 64


def address_of(table_id, row):
    return (table_id * NUM_ROWS + row) * VECTOR_BYTES


def make_query(query_id, arrival_us, num_tables=1, lookups=8):
    rng = np.random.default_rng(query_id)
    requests = [SLSRequest(table_id=t,
                           indices=rng.integers(0, NUM_ROWS, size=lookups),
                           lengths=np.asarray([lookups]))
                for t in range(num_tables)]
    return ServingQuery(query_id=query_id, arrival_us=arrival_us,
                        requests=requests)


class TestArrivals:
    def test_poisson_is_deterministic_and_monotone(self):
        process = PoissonArrivalProcess(rate_qps=10_000, seed=7)
        times_a = process.arrival_times_us(100)
        times_b = PoissonArrivalProcess(rate_qps=10_000,
                                        seed=7).arrival_times_us(100)
        assert np.array_equal(times_a, times_b)
        assert (np.diff(times_a) >= 0).all()
        # Mean gap approximates 1e6 / rate.
        gaps = np.diff(times_a)
        assert 10 < gaps.mean() < 1000

    def test_poisson_validates_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(rate_qps=0)

    def test_trace_replay_cycles_and_scales(self):
        process = TraceReplayArrivalProcess([10.0, 20.0, 30.0])
        times = process.arrival_times_us(5)
        assert times.tolist() == [10.0, 30.0, 60.0, 70.0, 90.0]
        double_rate = TraceReplayArrivalProcess([10.0, 20.0, 30.0],
                                                rate_scale=2.0)
        assert double_rate.arrival_times_us(3).tolist() == [5.0, 15.0, 30.0]
        assert double_rate.mean_rate_qps == pytest.approx(1e5)

    def test_queries_from_traces_preserve_tables(self):
        traces = make_production_table_traces(
            num_lookups_per_table=400, num_rows=NUM_ROWS, num_tables=3,
            seed=0)
        queries = queries_from_traces(traces, 6, [float(i) for i in
                                                  range(6)],
                                      batch_size=2, pooling_factor=4)
        assert len(queries) == 6
        for query in queries:
            assert len(query.requests) == 3
            assert sorted(r.table_id for r in query.requests) == [0, 1, 2]
            assert query.total_lookups == 3 * 2 * 4


class TestBatcher:
    def test_size_trigger(self):
        queries = [make_query(i, arrival_us=float(i)) for i in range(8)]
        frontend = BatchingFrontend(max_queries=4, max_delay_us=1000.0)
        batches = frontend.form_batches(queries)
        assert [b.size for b in batches] == [4, 4]
        assert all(b.trigger == "size" for b in batches)
        # Size-triggered batches dispatch at the last query's arrival.
        assert batches[0].formed_us == 3.0
        assert batches[1].formed_us == 7.0

    def test_deadline_trigger(self):
        queries = [make_query(i, arrival_us=1000.0 * i) for i in range(3)]
        frontend = BatchingFrontend(max_queries=8, max_delay_us=100.0)
        batches = frontend.form_batches(queries)
        assert [b.size for b in batches] == [1, 1, 1]
        assert all(b.trigger == "deadline" for b in batches)
        assert batches[0].formed_us == pytest.approx(100.0)
        assert batches[1].formed_us == pytest.approx(1100.0)

    def test_mixed_triggers_and_delay_accounting(self):
        arrivals = [0.0, 1.0, 2.0, 3.0, 500.0]
        queries = [make_query(i, arrival_us=t)
                   for i, t in enumerate(arrivals)]
        frontend = BatchingFrontend(max_queries=4, max_delay_us=50.0)
        batches = frontend.form_batches(queries)
        assert [b.trigger for b in batches] == ["size", "deadline"]
        first = batches[0]
        # Batching delays: formation time minus each query's arrival.
        assert first.formed_us - arrivals[0] == pytest.approx(3.0)
        assert first.formed_us - arrivals[3] == 0.0
        counts = frontend.trigger_counts(batches)
        assert counts == {"size": 1, "deadline": 1}

    def test_deadline_boundary_starts_a_new_batch(self):
        """Regression: a query arriving exactly at ``open + max_delay``
        joined the already-expired batch, landing in a batch whose
        ``formed_us`` equalled its own arrival yet was tagged deadline."""
        queries = [make_query(0, arrival_us=0.0),
                   make_query(1, arrival_us=100.0)]
        frontend = BatchingFrontend(max_queries=8, max_delay_us=100.0)
        batches = frontend.form_batches(queries)
        assert [b.size for b in batches] == [1, 1]
        assert batches[0].formed_us == pytest.approx(100.0)
        assert batches.columns.query_id.tolist() == [0, 1]
        # The boundary query opens the next batch instead of riding a
        # batch that dispatched the instant it arrived.
        assert batches[1].open_us == pytest.approx(100.0)
        assert batches[1].formed_us == pytest.approx(200.0)
        assert batches[1].formed_us - queries[1].arrival_us == \
            pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingFrontend(max_queries=0)
        with pytest.raises(ValueError):
            BatchingFrontend(max_delay_us=-1.0)


class TestSharding:
    def test_round_robin_placement(self):
        sharder = TableSharder(num_nodes=3)
        assert [sharder.node_of_table(t) for t in range(6)] == \
            [0, 1, 2, 0, 1, 2]

    def test_placement_is_deterministic_across_instances(self):
        tables = [1, 5, 17, 100, 2**20 + 3]
        for policy in TableSharder.POLICIES:
            first = [TableSharder(4, policy=policy).node_of_table(t)
                     for t in tables]
            second = [TableSharder(4, policy=policy).node_of_table(t)
                      for t in tables]
            assert first == second
            assert all(0 <= node < 4 for node in first)

    def test_partition_preserves_requests(self):
        rng = np.random.default_rng(0)
        requests = [SLSRequest(table_id=t,
                               indices=rng.integers(0, NUM_ROWS, size=4),
                               lengths=np.asarray([4]))
                    for t in range(10)]
        sharder = TableSharder(num_nodes=4, policy="hash")
        partitions = partition_by_assignment(
            requests, sharder.assign_requests(requests), 4)
        assert len(partitions) == 4
        flattened = [r for part in partitions for r in part]
        assert sorted(r.table_id for r in flattened) == list(range(10))
        load = sharder.shard_load(requests)
        assert sum(load) == sum(r.total_lookups for r in requests)

    def test_validation(self):
        with pytest.raises(ValueError):
            TableSharder(0)
        with pytest.raises(ValueError):
            TableSharder(2, policy="nope")
        with pytest.raises(ValueError):
            TableSharder(2).node_of_table(-1)


class TestQueueingMath:
    def test_percentile_known_distribution(self):
        samples = list(range(1, 101))      # 1..100
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 100.0
        assert percentile(samples, 50) == pytest.approx(50.5)
        # Linear interpolation between order statistics.
        assert percentile(samples, 95) == pytest.approx(95.05)
        assert percentile(samples, 99) == pytest.approx(99.01)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        assert percentile([42.0], 99) == 42.0

    def test_mg1_formulas_on_deterministic_service(self):
        # M/D/1: lambda = 0.05/us, S = 10us -> rho = 0.5,
        # W = lambda * E[S^2] / (2 (1 - rho)) = 0.05*100/(2*0.5) = 5us.
        services = [10.0] * 50
        assert mgc_utilization(0.05, services, 1) == pytest.approx(0.5)
        assert mgc_mean_wait_us(0.05, services, 1) == pytest.approx(5.0)
        # Unstable queue.
        assert math.isinf(mgc_mean_wait_us(0.2, services, 1))

    def test_wait_quantile_tail(self):
        services = [10.0] * 50
        # Below the no-wait mass the quantile is 0.
        assert wait_quantile_us(0.05, services, 40) == 0.0
        # P(W > t) = rho * exp(-(1-rho) t / E[S]); p99 tail = 0.01:
        # t = -ln(0.01/0.5) * 10 / 0.5.
        expected = -math.log(0.01 / 0.5) * 10.0 / 0.5
        assert wait_quantile_us(0.05, services, 99) == \
            pytest.approx(expected)
        assert math.isinf(wait_quantile_us(0.2, services, 99))

    def test_summarize_serving_counts(self):
        queries = [make_query(i, arrival_us=100.0 * i) for i in range(4)]
        batches = [QueryBatch(queries=[q], open_us=q.arrival_us,
                              formed_us=q.arrival_us + 5.0,
                              trigger="deadline")
                   for q in queries]
        report = summarize_serving("unit", batch_columns(batches),
                                   [10.0, 10.0, 10.0, 10.0])
        assert report.num_queries == 4
        assert report.num_batches == 4
        assert report.mean_service_us == pytest.approx(10.0)
        assert report.mean_batch_delay_us == pytest.approx(5.0)
        # Batch rate from the 3 inter-dispatch intervals over 300us.
        assert report.utilization == pytest.approx(0.1)
        assert report.mean_wait_us == pytest.approx(0.01 * 100 / (2 * 0.9))
        # p50 carries no queueing mass (tail 0.5 >= rho); tails add the
        # M/G/1 wait quantile on top of delay + service.
        assert report.p50_us == pytest.approx(15.0)
        expected_p99 = 15.0 + -math.log(0.01 / 0.1) * 10.0 / 0.9
        assert report.p99_us == pytest.approx(expected_p99)
        assert report.p50_us <= report.p95_us <= report.p99_us
        # 1 query per batch, 10us service -> 100k QPS sustainable.
        assert report.sustainable_qps == pytest.approx(1e5)
        assert report.stable
        payload = report.as_dict()
        assert payload["system"] == "unit"
        assert payload["stable"] is True

    def test_degenerate_spans_report_zero_rates(self):
        """Regression: the 1e-9 span floor exploded ``offered_qps`` to
        ~1e15 for a single query or identical arrival times."""
        # One query: no interval to estimate a rate from.
        lone = QueryBatch(queries=[make_query(0, 5.0)], open_us=5.0,
                          formed_us=10.0)
        report = summarize_serving("unit", batch_columns([lone]), [10.0])
        assert report.offered_qps == 0.0
        assert math.isfinite(report.p99_us)
        # Many queries at one instant: still no arrival span.
        burst = QueryBatch(queries=[make_query(i, 5.0) for i in range(4)],
                           open_us=5.0, formed_us=10.0)
        report = summarize_serving("unit", batch_columns([burst]), [10.0])
        assert report.offered_qps == 0.0
        # Batches all formed at one instant: no dispatch span either.
        twins = [QueryBatch(queries=[make_query(i, 5.0)], open_us=5.0,
                            formed_us=10.0) for i in range(2)]
        report = summarize_serving("unit", batch_columns(twins),
                                   [10.0, 10.0])
        assert report.utilization == 0.0
        assert math.isfinite(report.p99_us)

    def test_offered_rate_uses_interval_form(self):
        """``offered_qps`` matches the batch-rate estimator: (N-1)/span."""
        queries = [make_query(i, arrival_us=100.0 * i) for i in range(4)]
        batches = [QueryBatch(queries=[q], open_us=q.arrival_us,
                              formed_us=q.arrival_us + 5.0)
                   for q in queries]
        report = summarize_serving("unit", batch_columns(batches),
                                   [10.0] * 4)
        # 3 inter-arrival gaps over 300us -> 0.01 queries/us.
        assert report.offered_qps == pytest.approx(0.01 * 1e6)

    def test_single_batch_never_queues(self):
        """One batch has nothing to queue behind: finite latencies."""
        queries = [make_query(i, arrival_us=0.1 * i) for i in range(3)]
        batch = QueryBatch(queries=queries, open_us=0.0, formed_us=1.0,
                           trigger="size")
        report = summarize_serving("unit", batch_columns([batch]), [10.0])
        assert report.utilization == 0.0
        assert report.mean_wait_us == 0.0
        assert math.isfinite(report.p99_us)
        # Largest delay (1.0) + service, via percentile interpolation.
        assert report.p99_us == pytest.approx(10.998)

    def test_summarize_validates_lengths(self):
        queries = [make_query(0, 0.0)]
        batch = QueryBatch(queries=queries, open_us=0.0, formed_us=1.0)
        with pytest.raises(ValueError):
            summarize_serving("unit", batch_columns([batch]), [1.0, 2.0])
        with pytest.raises(ValueError):
            summarize_serving("unit", batch_columns([]), [])


class TestCluster:
    def build_queries(self, qps=50_000.0, num_queries=12):
        traces = make_production_table_traces(
            num_lookups_per_table=400, num_rows=NUM_ROWS, num_tables=4,
            seed=0)
        return queries_from_traces(
            traces, num_queries,
            PoissonArrivalProcess(rate_qps=qps, seed=3),
            batch_size=2, pooling_factor=4)

    def test_cluster_simulation_reports(self):
        cluster = ShardedServingCluster(
            num_nodes=2, node_system="recnmp-opt",
            address_of=address_of, vector_size_bytes=VECTOR_BYTES)
        report = cluster.simulate(
            self.build_queries(),
            frontend=BatchingFrontend(max_queries=4, max_delay_us=100.0))
        assert report.num_queries == 12
        assert report.num_batches >= 3
        assert report.p50_us <= report.p95_us <= report.p99_us
        assert report.sustainable_qps > 0
        assert report.extras["num_nodes"] == 2

    def test_cluster_is_deterministic(self):
        def run_once():
            cluster = ShardedServingCluster(
                num_nodes=2, node_system="recnmp-base",
                address_of=address_of, vector_size_bytes=VECTOR_BYTES)
            return cluster.simulate(self.build_queries()).as_dict()

        assert run_once() == run_once()

    def test_service_cache_reused_across_sweep_points(self):
        cluster = ShardedServingCluster(
            num_nodes=2, node_system="recnmp-base",
            address_of=address_of, vector_size_bytes=VECTOR_BYTES)
        reports = qps_sweep(cluster,
                            lambda qps: self.build_queries(qps=qps),
                            [20_000.0, 20_000.0])
        assert len(reports) == 2
        # Identical offered load -> identical batches -> cached services.
        assert reports[0].p99_us == reports[1].p99_us

    def test_service_cache_is_content_keyed(self):
        """Different workloads on one cluster must not share cached times.

        Regression: the cache was keyed by query id, and independent query
        streams both number from 0.
        """
        cluster = ShardedServingCluster(
            num_nodes=2, node_system="recnmp-base",
            address_of=address_of, vector_size_bytes=VECTOR_BYTES)
        light = self.build_queries(num_queries=4)
        rng = np.random.default_rng(42)
        heavy = [ServingQuery(
            query_id=q.query_id, arrival_us=q.arrival_us,
            requests=[SLSRequest(
                table_id=t, indices=rng.integers(0, NUM_ROWS, size=64),
                lengths=np.full(8, 8)) for t in range(4)])
            for q in light]
        report_light = cluster.simulate(light)
        report_heavy = cluster.simulate(heavy)
        # 8x the lookups per query must not replay the light service times.
        assert report_heavy.mean_service_us > report_light.mean_service_us

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            ShardedServingCluster(num_nodes=0)
        with pytest.raises(ValueError):
            ShardedServingCluster(num_nodes=2,
                                  sharder=TableSharder(num_nodes=3))
