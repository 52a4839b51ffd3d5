"""Tests for the pluggable serving engines (analytic vs event-driven)."""

import math

import numpy as np
import pytest

from queue_oracles import QueryBatch, batch_columns
from repro.dlrm.operators import SLSRequest
from repro.serving import (
    AnalyticEngine,
    BatchingFrontend,
    EventEngine,
    PoissonArrivalProcess,
    ServingEngine,
    ServingQuery,
    ShardedServingCluster,
    available_engines,
    erlang_c,
    mgc_mean_wait_us,
    mgc_utilization,
    qps_sweep,
    queries_from_traces,
    resolve_engine,
    simulate_batch_queue,
    summarize_serving,
    wait_quantile_us,
)
from repro.serving.query_columns import BatchColumns, QueryColumns
from repro.traces import make_production_table_traces

NUM_ROWS = 512
VECTOR_BYTES = 64


def address_of(table_id, row):
    return (table_id * NUM_ROWS + row) * VECTOR_BYTES


def make_query(query_id, arrival_us, lookups=8):
    rng = np.random.default_rng(query_id)
    request = SLSRequest(table_id=0,
                         indices=rng.integers(0, NUM_ROWS, size=lookups),
                         lengths=np.asarray([lookups]))
    return ServingQuery(query_id=query_id, arrival_us=arrival_us,
                        requests=[request])


def poisson_batches(num_batches, rate_per_us, seed=1):
    """Single-query batches with Poisson formation times, zero delay.

    The engines only read arrival/formation times and service times, so
    the queries carry no SLS requests -- keeps 40k-batch queue tests fast.
    """
    rng = np.random.default_rng(seed)
    ready = np.cumsum(rng.exponential(1.0 / rate_per_us, size=num_batches))
    ids = np.arange(num_batches)
    zeros = np.zeros(num_batches, dtype=np.int64)
    columns = QueryColumns(ids, ready, np.full(num_batches, np.nan), zeros,
                           zeros, zeros, ids, provider=None)
    return BatchColumns(columns, ids, ready, ready, zeros)


class TestErlangC:
    def test_single_server_is_utilization(self):
        for load in (0.1, 0.5, 0.9):
            assert erlang_c(1, load) == pytest.approx(load)

    def test_two_servers_at_one_erlang(self):
        # Classic textbook value: C(2, 1) = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_bounds_and_validation(self):
        assert erlang_c(4, 0.0) == 0.0
        assert erlang_c(2, 2.0) == 1.0       # saturated
        assert 0.0 < erlang_c(8, 6.0) < 1.0
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, -1.0)


class TestMGcFormulas:
    def test_single_server_reduces_to_pk(self):
        rng = np.random.default_rng(0)
        services = rng.exponential(10.0, size=200)
        rate = 0.04
        # Pollaczek-Khinchine: W = lambda * E[S^2] / (2 * (1 - rho)).
        rho = rate * services.mean()
        assert mgc_mean_wait_us(rate, services, 1) == pytest.approx(
            rate * (services ** 2).mean() / (2.0 * (1.0 - rho)))
        assert mgc_utilization(rate, services, 1) == \
            pytest.approx(rate * services.mean())

    def test_more_servers_wait_less(self):
        services = [10.0] * 50
        rate = 0.15                            # rho = 0.75 on 2 servers
        one = mgc_mean_wait_us(rate * 0.5, services, 1)
        two = mgc_mean_wait_us(rate, services, 2)
        # Pooling two servers beats two separate M/G/1 queues at the same
        # per-server load.
        assert two < one
        assert mgc_utilization(rate, services, 2) == pytest.approx(0.75)

    def test_wait_quantile_multiserver_reduces_tail(self):
        services = [10.0] * 50
        single = wait_quantile_us(0.08, services, 99)
        pooled = wait_quantile_us(0.16, services, 99, num_servers=2)
        assert 0.0 < pooled < single
        assert math.isinf(wait_quantile_us(0.3, services, 99,
                                           num_servers=2))

    def test_summarize_sustainable_qps_scales_with_servers(self):
        """Regression: sustainable_qps assumed a single dispatch server."""
        queries = [make_query(i, arrival_us=100.0 * i) for i in range(4)]
        batches = batch_columns([
            QueryBatch(queries=[q], open_us=q.arrival_us,
                       formed_us=q.arrival_us + 5.0, trigger="deadline")
            for q in queries])
        services = [10.0] * 4
        one = summarize_serving("unit", batches, services)
        four = summarize_serving("unit", batches, services, num_servers=4)
        assert one.num_servers == 1
        assert four.num_servers == 4
        assert four.sustainable_qps == pytest.approx(4 * one.sustainable_qps)
        assert four.utilization == pytest.approx(one.utilization / 4)
        assert four.as_dict()["num_servers"] == 4


class TestFifoSimulation:
    def test_two_servers_serve_concurrently(self):
        starts, completes, depth = simulate_batch_queue(
            [0.0, 0.0, 0.0], [10.0, 10.0, 10.0], num_servers=2)
        assert starts.tolist() == [0.0, 0.0, 10.0]
        assert completes.tolist() == [10.0, 10.0, 20.0]
        assert depth == 1

    def test_fifo_order_respects_ready_times(self):
        starts, completes, depth = simulate_batch_queue(
            [0.0, 1.0, 2.0], [5.0, 5.0, 5.0], num_servers=1)
        assert starts.tolist() == [0.0, 5.0, 10.0]
        assert completes.tolist() == [5.0, 10.0, 15.0]
        assert depth == 2

    def test_idle_server_starts_immediately(self):
        starts, _, depth = simulate_batch_queue(
            [0.0, 100.0], [10.0, 10.0], num_servers=1)
        assert starts.tolist() == [0.0, 100.0]
        assert depth == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_batch_queue([], [], 1)
        with pytest.raises(ValueError):
            simulate_batch_queue([0.0], [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            simulate_batch_queue([0.0], [1.0], 0)


def fifo_recurrence(ready, services):
    """The sequential single-server FIFO recurrence (reference)."""
    order = np.argsort(ready, kind="stable")
    starts = np.empty_like(ready)
    completes = np.empty_like(ready)
    free_at = float(ready[order[0]])
    for index in order:
        start = max(float(ready[index]), free_at)
        free_at = start + float(services[index])
        starts[index] = start
        completes[index] = free_at
    return starts, completes


def replay_queue_depth(ready, starts):
    """The pre-optimisation event-replay waiting-queue depth (reference).

    One +1 event per arrival, one -1 event per service start, sorted by
    time with departures preceding arrivals at ties.
    """
    events = sorted([(float(t), 1) for t in ready]
                    + [(float(t), 0) for t in starts])
    depth = max_depth = 0
    for _, kind in events:
        depth += 1 if kind else -1
        max_depth = max(max_depth, depth)
    return max_depth


class TestVectorisedFifo:
    """The closed-form single-server FIFO path vs the heap recurrence."""

    def test_matches_recurrence_on_integer_times(self):
        # Integer-valued times: the prefix-sum closed form is exact, so
        # the vectorised path must agree bit-for-bit.
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(1, 200))
            ready = rng.integers(0, 500, size=n).astype(np.float64)
            services = rng.integers(1, 50, size=n).astype(np.float64)
            starts, completes, _ = simulate_batch_queue(ready, services,
                                                       num_servers=1)
            ref_starts, ref_completes = fifo_recurrence(ready, services)
            assert starts.tolist() == ref_starts.tolist(), trial
            assert completes.tolist() == ref_completes.tolist(), trial

    def test_matches_recurrence_on_float_times(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(1, 200))
            ready = np.sort(rng.exponential(10.0, size=n))
            rng.shuffle(ready)                # exercise unsorted input
            services = rng.exponential(5.0, size=n) + 1e-9
            starts, completes, _ = simulate_batch_queue(ready, services,
                                                       num_servers=1)
            ref_starts, ref_completes = fifo_recurrence(ready, services)
            np.testing.assert_allclose(starts, ref_starts, rtol=1e-12)
            np.testing.assert_allclose(completes, ref_completes,
                                       rtol=1e-12)

    def test_queue_depth_matches_event_replay(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(1, 120))
            ready = rng.integers(0, 300, size=n).astype(np.float64)
            services = rng.integers(1, 40, size=n).astype(np.float64)
            servers = int(rng.integers(1, 4))
            for order, priorities in (("fifo", None),
                                      ("edf", rng.integers(
                                          0, 1000, size=n).astype(
                                              np.float64))):
                starts, _, depth = simulate_batch_queue(
                    ready, services, num_servers=servers, order=order,
                    priorities=priorities)
                assert depth == replay_queue_depth(ready, starts), \
                    (trial, order, servers)

    def test_queue_depth_fixtures(self):
        # The documented fixture values must survive the accounting
        # rewrite (computed from start times, not an event list).
        _, _, depth = simulate_batch_queue([0.0, 1.0, 2.0],
                                          [5.0, 5.0, 5.0], num_servers=1)
        assert depth == 2
        _, _, depth = simulate_batch_queue([0.0, 0.0, 0.0],
                                          [10.0, 10.0, 10.0],
                                          num_servers=2)
        assert depth == 1
        _, _, depth = simulate_batch_queue([0.0, 100.0], [10.0, 10.0],
                                          num_servers=1)
        assert depth == 0


class TestEngineResolution:
    def test_names_and_instances(self):
        assert isinstance(resolve_engine(None), AnalyticEngine)
        assert isinstance(resolve_engine("analytic"), AnalyticEngine)
        assert isinstance(resolve_engine("event"), EventEngine)
        engine = EventEngine()
        assert resolve_engine(engine) is engine
        assert isinstance(resolve_engine(AnalyticEngine), AnalyticEngine)
        assert available_engines() == ["analytic", "event", "event-edf"]
        edf = resolve_engine("event-edf")
        assert isinstance(edf, EventEngine)
        assert edf.order == "edf"
        assert edf.name == "event-edf"

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            resolve_engine("closed-form")

    def test_engines_are_serving_engines(self):
        assert issubclass(AnalyticEngine, ServingEngine)
        assert issubclass(EventEngine, ServingEngine)


class TestEngineAgreement:
    def test_mean_latency_agrees_at_low_utilization(self):
        """Engines must agree within 5% on mean latency at rho < 0.3."""
        rate_per_us = 0.02                       # rho = 0.2 at E[S] = 10us
        batches = poisson_batches(5000, rate_per_us, seed=1)
        rng = np.random.default_rng(7)
        services = rng.exponential(10.0, size=len(batches))
        analytic = AnalyticEngine().summarize("unit", batches, services)
        event = EventEngine().summarize("unit", batches, services)
        assert analytic.utilization < 0.3
        assert event.mean_latency_us == \
            pytest.approx(analytic.mean_latency_us, rel=0.05)
        assert event.mean_wait_us == \
            pytest.approx(analytic.mean_wait_us, rel=0.25)

    def test_event_engine_reproduces_mm1_closed_form(self):
        """M/M/1: measured waits and tails must match the exact theory."""
        mean_service = 10.0
        for rho in (0.5, 0.7):
            rate_per_us = rho / mean_service
            batches = poisson_batches(40_000, rate_per_us, seed=1)
            # Independent seed: correlated gap/service draws would hide
            # the queueing the closed form predicts.
            rng = np.random.default_rng(2)
            services = rng.exponential(mean_service, size=len(batches))
            report = EventEngine().summarize("unit", batches, services)
            expected_wait = rho * mean_service / (1.0 - rho)
            assert report.mean_wait_us == \
                pytest.approx(expected_wait, rel=0.10)
            # Sojourn time in M/M/1 is exponential with rate mu(1 - rho):
            # p99 = -ln(0.01) / (mu (1 - rho)).  Batches carry zero
            # batching delay here, so per-query latency is the sojourn.
            expected_p99 = -math.log(0.01) * mean_service / (1.0 - rho)
            assert report.p99_us == pytest.approx(expected_p99, rel=0.10)

    @pytest.mark.parametrize("queue, rho", [
        ("M/D/1", 0.3), ("M/D/1", 0.5), ("M/M/2", 0.3), ("M/M/2", 0.6)])
    def test_event_engine_mean_wait_matches_closed_form(self, queue, rho):
        """Mean wait on 40k batches against the exact closed forms,
        written here rather than taken from repro.serving.queueing."""
        mean_service = 10.0
        servers = 2 if queue == "M/M/2" else 1
        rate_per_us = servers * rho / mean_service
        batches = poisson_batches(40_000, rate_per_us, seed=1)
        if queue == "M/D/1":
            services = np.full(len(batches), mean_service)
            # Pollaczek-Khinchine with E[S^2] = S^2.
            expected_wait = rho * mean_service / (2.0 * (1.0 - rho))
        else:
            services = np.random.default_rng(2).exponential(
                mean_service, size=len(batches))
            # Erlang C: the probability an arrival waits, then
            # W = C * E[S] / (c (1 - rho)).
            offered = servers * rho
            tail = offered ** servers / math.factorial(servers) \
                / (1.0 - rho)
            wait_probability = tail / (sum(
                offered ** k / math.factorial(k) for k in range(servers))
                + tail)
            expected_wait = wait_probability * mean_service \
                / (servers * (1.0 - rho))
        report = EventEngine().summarize("unit", batches, services,
                                         num_servers=servers)
        assert report.mean_wait_us == pytest.approx(expected_wait,
                                                    rel=0.10)

    def test_event_engine_reports_measured_extras(self):
        batches = poisson_batches(200, 0.05, seed=3)
        services = [15.0] * len(batches)
        report = EventEngine().summarize("unit", batches, services,
                                         num_servers=2)
        assert report.extras["engine"] == "event"
        assert report.extras["num_frontends"] == 2
        assert 0.0 < report.extras["measured_utilization"] <= 1.0
        assert report.extras["max_queue_depth"] >= 0
        assert report.num_servers == 2


class TestClusterEngineParameter:
    def build_queries(self, qps=40_000.0, num_queries=12):
        traces = make_production_table_traces(
            num_lookups_per_table=400, num_rows=NUM_ROWS, num_tables=4,
            seed=0)
        return queries_from_traces(
            traces, num_queries,
            PoissonArrivalProcess(rate_qps=qps, seed=3),
            batch_size=2, pooling_factor=4)

    def build_cluster(self, **overrides):
        return ShardedServingCluster(
            num_nodes=2, node_system="recnmp-base",
            address_of=address_of, vector_size_bytes=VECTOR_BYTES,
            **overrides)

    def test_default_engine_is_analytic(self):
        report = self.build_cluster().simulate(self.build_queries())
        assert report.extras["engine"] == "analytic"
        assert report.extras["service_model"] == "exact"
        assert report.num_servers == 1

    def test_event_engine_through_cluster(self):
        queries = self.build_queries()
        frontend = BatchingFrontend(max_queries=4, max_delay_us=100.0)
        cluster = self.build_cluster(num_frontends=2)
        analytic = cluster.simulate(queries, frontend=frontend)
        event = cluster.simulate(queries, frontend=frontend,
                                 engine="event")
        assert event.extras["engine"] == "event"
        assert event.num_servers == 2
        # Identical batches and service times (memoised) underneath.
        assert event.num_batches == analytic.num_batches
        assert event.mean_service_us == \
            pytest.approx(analytic.mean_service_us)
        # Low utilisation: engines agree closely on the mean.
        assert event.mean_latency_us == \
            pytest.approx(analytic.mean_latency_us, rel=0.05)

    def test_qps_sweep_forwards_engine(self):
        cluster = self.build_cluster()
        reports = qps_sweep(cluster,
                            lambda qps: self.build_queries(qps=qps),
                            [20_000.0, 40_000.0], engine="event")
        assert [r.extras["engine"] for r in reports] == ["event", "event"]

    def test_cluster_validates_frontends(self):
        with pytest.raises(ValueError):
            self.build_cluster(num_frontends=0)
