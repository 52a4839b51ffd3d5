"""Tests for parallel qps_sweep, batched dedup and the warm store path.

The sweep backends must be invisible: whatever backend runs the points
(serial loop or worker-process rebuilds), the
reports -- percentiles, extras, SLO records -- must be *byte-identical*
to the serial loop, across stateless and stateful sharders and across
engines.  Batched service resolution must likewise be indistinguishable
from resolving batches one at a time, and a sweep re-run against a warm
persistent store must perform zero exact batch simulations.
"""

from repro.serving import (
    BatchingFrontend,
    PoissonArrivalProcess,
    ShardedServingCluster,
    qps_sweep,
    queries_from_traces,
    query_columns_from_traces,
)
from repro.serving.cluster import build_sweep_cluster
from repro.serving.sharding import ReplicatedTableSharder
from repro.traces import make_production_table_traces

NUM_ROWS = 512
NUM_TABLES = 4
QPS_POINTS = [40_000.0, 80_000.0, 120_000.0]
PARALLEL_BACKENDS = ("process",)


def make_traces():
    return make_production_table_traces(
        num_lookups_per_table=256, num_rows=NUM_ROWS,
        num_tables=NUM_TABLES, seed=0)


def make_query_factory(traces):
    def make_queries(qps):
        return queries_from_traces(
            traces, 8, PoissonArrivalProcess(rate_qps=qps, seed=1),
            batch_size=2, pooling_factor=4)
    return make_queries


def make_cluster(**overrides):
    return ShardedServingCluster(num_nodes=2, node_system="recnmp-base",
                                 table_rows=NUM_ROWS, **overrides)


def run_sweep(backend, engine=None, sharder=None, service_store=None,
              traces=None, make_queries=None):
    traces = traces if traces is not None else make_traces()
    with make_cluster(sharder=sharder,
                      service_store=service_store) as cluster:
        reports = qps_sweep(
            cluster, make_queries or make_query_factory(traces),
            QPS_POINTS,
            frontend=BatchingFrontend(max_queries=4, max_delay_us=200.0),
            engine=engine, service_model="exact", backend=backend)
        stats = cluster.service_stats()
    return [report.as_dict() for report in reports], stats


class TestParallelSweepIdentity:
    def test_backends_match_serial(self):
        traces = make_traces()
        serial, _ = run_sweep("serial", traces=traces)
        assert len(serial) == len(QPS_POINTS)
        for backend in PARALLEL_BACKENDS:
            parallel, _ = run_sweep(backend, traces=traces)
            assert parallel == serial, backend

    def test_backends_match_serial_event_engine(self):
        traces = make_traces()
        serial, _ = run_sweep("serial", engine="event", traces=traces)
        for backend in PARALLEL_BACKENDS:
            parallel, _ = run_sweep(backend, engine="event", traces=traces)
            assert parallel == serial, backend

    def test_backends_match_serial_stateful_sharder(self):
        # Replication routes by running load counters (stateful), the
        # hardest case for worker rebuilds.
        traces = make_traces()

        def sharder():
            return ReplicatedTableSharder.from_traces(2, traces)

        serial, _ = run_sweep("serial", sharder=sharder(), traces=traces)
        for backend in PARALLEL_BACKENDS:
            parallel, _ = run_sweep(backend, sharder=sharder(),
                                    traces=traces)
            assert parallel == serial, backend

    def test_query_columns_points_match_query_lists(self):
        """``make_queries`` may return ``QueryColumns``: they reach every
        backend unchanged and report like the same queries as a list."""
        traces = make_traces()
        expected, _ = run_sweep("serial", traces=traces)

        def make_columns(qps):
            return query_columns_from_traces(
                traces, 8, PoissonArrivalProcess(rate_qps=qps, seed=1),
                batch_size=2, pooling_factor=4)

        for backend in ("serial",) + PARALLEL_BACKENDS:
            reports, _ = run_sweep(backend, traces=traces,
                                   make_queries=make_columns)
            assert reports == expected, backend

    def test_parallel_state_merges_back(self):
        # Worker deltas must land in the parent cluster: every point ran
        # somewhere, so the folded counters cover the whole sweep.
        _, stats = run_sweep("process")
        assert stats["exact_simulations"] > 0
        cache = stats["cache"]
        assert cache["entries"] > 0
        assert cache["hits"] + cache["misses"] > 0


class TestWarmStoreSweep:
    def test_warm_rerun_simulates_nothing(self, tmp_path):
        store_path = tmp_path / "sweep.sqlite"
        traces = make_traces()
        cold, cold_stats = run_sweep("serial", service_store=store_path,
                                     traces=traces)
        assert cold_stats["store"]["puts"] > 0
        for backend in ("serial",) + PARALLEL_BACKENDS:
            warm, warm_stats = run_sweep(backend,
                                         service_store=store_path,
                                         traces=traces)
            assert warm == cold, backend
            assert warm_stats["exact_simulations"] == 0, backend
            assert warm_stats["store"]["misses"] == 0, backend

    def test_store_entries_shared_across_configs_is_a_miss(self, tmp_path):
        store_path = tmp_path / "sweep.sqlite"
        traces = make_traces()
        _, stats = run_sweep("serial", service_store=store_path,
                             traces=traces)
        puts = stats["store"]["puts"]
        # A different cluster configuration must not reuse the entries.
        with ShardedServingCluster(
                num_nodes=2, node_system="recnmp-opt",
                table_rows=NUM_ROWS,
                service_store=store_path) as cluster:
            qps_sweep(cluster, make_query_factory(traces), QPS_POINTS[:1],
                      service_model="exact")
            other = cluster.service_stats()
        assert other["store"]["hits"] == 0
        assert other["store"]["entries"] > puts   # both configs stored


class TestBatchedDedup:
    def _batches(self, cluster, traces):
        queries = queries_from_traces(
            traces, 8, [float(i) * 1000.0 for i in range(8)],
            batch_size=2, pooling_factor=4)
        frontend = BatchingFrontend(max_queries=2)
        return list(frontend.form_batches(queries))

    def test_batched_equals_one_at_a_time(self):
        traces = make_traces()
        with make_cluster() as batched, make_cluster() as serial:
            batches = self._batches(batched, traces)
            # Repeat the batch list so in-flight dedup has work to do.
            stream = list(batches) + list(batches)
            vector = batched.service_times_us(stream)
            singles = [serial.service_time_us(batch) for batch in stream]
            assert vector == singles
            # One simulation per unique composition, repeats collapsed.
            assert batched.service_stats()["exact_simulations"] == \
                serial.service_stats()["exact_simulations"]
            assert batched.service_stats()["dedup_hits"] == len(batches)
            # Counter parity with the one-at-a-time path: collapsed
            # duplicates count as cache hits.
            assert batched.service_stats()["cache"] == \
                serial.service_stats()["cache"]

    def test_export_merge_round_trip(self):
        traces = make_traces()
        with make_cluster() as worker, make_cluster() as parent:
            batches = self._batches(worker, traces)
            worker.service_times_us(batches)
            state = worker.export_service_state()
            parent.merge_service_state(state)
            assert parent.service_stats()["cache"] == \
                worker.service_stats()["cache"]
            assert parent.service_stats()["exact_simulations"] == \
                worker.service_stats()["exact_simulations"]
            # Merged entries answer without new simulations.
            parent.service_times_us(batches[:1])
            assert parent.service_stats()["exact_simulations"] == \
                worker.service_stats()["exact_simulations"]


class TestSweepSpec:
    def test_build_sweep_cluster_reproduces_results(self, tmp_path):
        store_path = tmp_path / "sweep.sqlite"
        traces = make_traces()
        with make_cluster(service_store=store_path) as cluster:
            batches = TestBatchedDedup()._batches(cluster, traces)
            expected = cluster.service_times_us(batches)
            spec = cluster.sweep_spec()
        assert spec["service_store"] == str(store_path)
        with build_sweep_cluster(spec) as clone:
            # The clone shares the store file, so a fresh object answers
            # from disk with zero exact simulations.
            assert clone.service_times_us(batches) == expected
            assert clone.service_stats()["exact_simulations"] == 0
