"""Tests for SLO policies, admission control, MMPP arrivals and EDF."""

import numpy as np
import pytest

from queue_oracles import QueryBatch, batch_columns
from repro.dlrm.operators import SLSRequest
from repro.serving import (
    AnalyticEngine,
    BatchingFrontend,
    DeadlineAwareAdmission,
    EventEngine,
    FixedSLOPolicy,
    MMPPArrivalProcess,
    NoAdmission,
    PerTableSLOPolicy,
    PoissonArrivalProcess,
    QueueDepthAdmission,
    QueryColumns,
    ServicePercentileSLOPolicy,
    ServingQuery,
    ShardedServingCluster,
    TokenBucketAdmission,
    TraceReplayArrivalProcess,
    available_admission_controllers,
    available_slo_policies,
    qps_sweep,
    queries_from_traces,
    resolve_admission,
    resolve_slo_policy,
    simulate_batch_queue,
)
from repro.serving.slo import summarize_slo_arrays
from repro.traces import make_production_table_traces

NUM_ROWS = 512
VECTOR_BYTES = 64


def address_of(table_id, row):
    return (table_id * NUM_ROWS + row) * VECTOR_BYTES


def make_query(query_id, arrival_us, num_tables=1, lookups=8,
               deadline_us=None):
    rng = np.random.default_rng(query_id)
    requests = [SLSRequest(table_id=t,
                           indices=rng.integers(0, NUM_ROWS, size=lookups),
                           lengths=np.asarray([lookups]))
                for t in range(num_tables)]
    return ServingQuery(query_id=query_id, arrival_us=arrival_us,
                        requests=requests, deadline_us=deadline_us)


def columns_of(*queries):
    return QueryColumns.from_queries(queries)


class TestSLOPolicies:
    def test_fixed_policy_assigns_absolute_deadlines(self):
        columns = columns_of(*[make_query(i, arrival_us=10.0 * i)
                               for i in range(3)])
        FixedSLOPolicy(500.0).assign_deadlines_columns(columns)
        assert columns.deadline_us.tolist() == [500.0, 510.0, 520.0]

    def test_per_table_policy_scales_with_fanout(self):
        policy = PerTableSLOPolicy(base_us=100.0, per_table_us=50.0)
        columns = columns_of(make_query(0, 0.0, num_tables=1),
                             make_query(1, 0.0, num_tables=4))
        assert policy.slack_column(columns).tolist() == [150.0, 300.0]

    def test_service_percentile_policy(self):
        services = [10.0] * 99 + [100.0]
        policy = ServicePercentileSLOPolicy(services, p=50.0,
                                            multiplier=3.0)
        columns = columns_of(make_query(0, 0.0))
        assert policy.slack_column(columns) == pytest.approx(30.0)
        assert "p50" in policy.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedSLOPolicy(0.0)
        with pytest.raises(ValueError):
            PerTableSLOPolicy(-1.0, 10.0)
        with pytest.raises(ValueError):
            PerTableSLOPolicy(0.0, 0.0)
        with pytest.raises(ValueError):
            ServicePercentileSLOPolicy([10.0], multiplier=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build, field", [
        (lambda bad: FixedSLOPolicy(bad), "slo_us"),
        (lambda bad: PerTableSLOPolicy(bad, 1.0), "base_us"),
        (lambda bad: PerTableSLOPolicy(1.0, bad), "per_table_us"),
        (lambda bad: ServicePercentileSLOPolicy([bad] * 3),
         "service_times_us"),
        (lambda bad: ServicePercentileSLOPolicy([10.0], p=bad), "p"),
        (lambda bad: ServicePercentileSLOPolicy([10.0], multiplier=bad),
         "multiplier"),
    ], ids=["fixed", "per-table-base", "per-table-slope",
            "percentile-services", "percentile-p", "percentile-multiplier"])
    def test_non_finite_budgets_rejected(self, build, field, bad):
        # A NaN budget passed every ``<= 0`` check and meant "no
        # deadlines": attainment None, "fixed nan us" in the report.
        with pytest.raises(ValueError, match=field + " must"):
            build(bad)

    def test_resolution(self):
        assert resolve_slo_policy(None) is None
        policy = FixedSLOPolicy(100.0)
        assert resolve_slo_policy(policy) is policy
        from_number = resolve_slo_policy(250.0)
        assert isinstance(from_number, FixedSLOPolicy)
        assert from_number.slo_us == 250.0
        with pytest.raises(ValueError):
            resolve_slo_policy("fixed")      # names need parameters
        with pytest.raises(ValueError):
            resolve_slo_policy(True)
        assert available_slo_policies() == ["fixed", "per-table",
                                            "service-percentile"]

    def test_deadline_never_changes_fingerprint(self):
        columns = columns_of(make_query(0, 0.0))
        before = list(columns.provider.fingerprints_for(columns.rows))
        FixedSLOPolicy(100.0).assign_deadlines_columns(columns)
        assert list(columns.provider.fingerprints_for(columns.rows)) == before


def summarize_slo(arrivals, slacks, latencies, slo_info=None):
    return summarize_slo_arrays(np.asarray(arrivals, dtype=np.float64),
                                np.asarray(slacks, dtype=np.float64),
                                latencies, slo_info)


class TestSummarizeSLO:
    def test_attainment_and_goodput(self):
        arrivals = 100.0 * np.arange(4)
        latencies = [10.0, 60.0, 50.0, 10.0]     # one miss, one exact hit
        record = summarize_slo(arrivals, [50.0] * 4, latencies,
                               {"num_offered": 6, "num_shed": 2,
                                "offered_span_us": 500.0,
                                "admission": "deadline"})
        assert record["num_with_deadline"] == 4
        assert record["deadlines_met"] == 3
        assert record["attainment"] == pytest.approx(0.75)
        assert record["shed_rate"] == pytest.approx(2 / 6)
        # Interval rate form, consistent with traffic_stats: (N-1)/span.
        assert record["goodput_qps"] == pytest.approx(2 / 500.0 * 1e6)

    def test_no_deadlines_means_null_attainment(self):
        record = summarize_slo([0.0, 1.0, 2.0], [np.nan] * 3,
                               [1.0, 1.0, 1.0], {"offered_span_us": 2.0})
        assert record["attainment"] is None
        # Goodput degrades to net throughput: all admitted count,
        # interval rate form (N-1)/span.
        assert record["goodput_qps"] == pytest.approx(2 / 2.0 * 1e6)

    def test_goodput_never_exceeds_offered_rate(self):
        """Both rates use the interval form, so zero shed at 100%
        attainment reports goodput == offered, never above it."""
        span = 90.0
        record = summarize_slo(10.0 * np.arange(10), [1e6] * 10,
                               [1.0] * 10, {"offered_span_us": span})
        offered_qps = (10 - 1) / span * 1e6
        assert record["goodput_qps"] == pytest.approx(offered_qps)

    def test_single_completion_carries_no_rate(self):
        record = summarize_slo([0.0], [np.nan], [1.0],
                               {"offered_span_us": 10.0})
        assert record["goodput_qps"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_slo([0.0], [np.nan], [])
        with pytest.raises(ValueError):
            summarize_slo([0.0], [np.nan], [1.0],
                          {"num_offered": 0, "num_shed": 5})


def admit(controller, arrivals, num_servers, est_query_us,
          est_batch_us=None, slacks=None):
    """One-shot admit mask of an arrival list (NaN slacks by default)."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if slacks is None:
        slacks = np.full(arrivals.shape, np.nan)
    state = controller.new_state(arrivals[0])
    return controller.admit_mask(
        arrivals, np.asarray(slacks, dtype=np.float64), state, num_servers,
        est_query_us, est_query_us if est_batch_us is None
        else est_batch_us)


class TestAdmissionControllers:
    def test_registry_and_resolution(self):
        assert available_admission_controllers() == [
            "deadline", "none", "queue-depth", "token-bucket"]
        assert resolve_admission(None) is None
        assert isinstance(resolve_admission("none"), NoAdmission)
        controller = TokenBucketAdmission(rate_qps=100.0)
        assert resolve_admission(controller) is controller
        assert isinstance(resolve_admission(DeadlineAwareAdmission),
                          DeadlineAwareAdmission)
        with pytest.raises(ValueError):
            resolve_admission("drop-everything")

    def test_none_admits_everything(self):
        mask = admit(NoAdmission(), [0.0] * 8, num_servers=1,
                     est_query_us=10.0)
        assert mask.all() and mask.size == 8

    def test_token_bucket_clips_sustained_overload(self):
        # 1000 queries arriving at 1 us gaps = 1M QPS against a 100k QPS
        # bucket with burst 10: ~burst + rate * span admitted.
        controller = TokenBucketAdmission(rate_qps=100_000.0, burst=10)
        mask = admit(controller, np.arange(1000.0), num_servers=1,
                     est_query_us=1.0)
        expected = 10 + 999 * 100_000.0 / 1e6
        assert mask.sum() == pytest.approx(expected, abs=2)
        assert mask.size == 1000

    def test_token_bucket_passes_bursts_within_burst_budget(self):
        controller = TokenBucketAdmission(rate_qps=1.0, burst=32)
        mask = admit(controller, [0.0] * 8, num_servers=1,
                     est_query_us=1.0)
        assert mask.all()

    def test_queue_depth_bounds_backlog(self):
        # Simultaneous arrivals: the fluid queue grows one query per
        # admission, so exactly max_depth are admitted.
        mask = admit(QueueDepthAdmission(max_depth=16), [0.0] * 50,
                     num_servers=2, est_query_us=10.0)
        assert mask.sum() == 16
        assert (~mask).sum() == 34

    def test_queue_depth_describe_names_its_depth(self):
        # The label the cluster's admission errors name the controller by.
        assert QueueDepthAdmission(max_depth=16).describe() == \
            "queue-depth (max 16 queries)"
        assert QueueDepthAdmission(max_depth=8.0).describe() == \
            "queue-depth (max 8 queries)"

    def test_deadline_sheds_doomed_queries_only(self):
        # est 10 us, 1 server, margin 1, batch estimate 10 us: a query
        # with slack s admits while predicted wait + 10 <= s.
        mask = admit(DeadlineAwareAdmission(margin=1.0), [0.0] * 10,
                     num_servers=1, est_query_us=10.0, est_batch_us=10.0,
                     slacks=[45.0] * 10)
        # Waits at admission: 0, 10, 20, 30 -> +10 <= 45 ok; 40 -> 50 no.
        assert mask.tolist() == [True] * 4 + [False] * 6

    def test_deadline_admits_a_predicted_exact_hit(self):
        # Predicted latency 0 + 10 equals the slack: admitted; the next
        # query (wait 10) would finish at 20 > 19.5: shed.
        mask = admit(DeadlineAwareAdmission(margin=1.0), [0.0, 0.0],
                     num_servers=1, est_query_us=10.0, est_batch_us=10.0,
                     slacks=[10.0, 19.5])
        assert mask.tolist() == [True, False]

    def test_deadline_admits_queries_without_deadline(self):
        mask = admit(DeadlineAwareAdmission(), [0.0] * 20, num_servers=1,
                     est_query_us=10.0)
        assert mask.all()

    def test_backlog_drains_between_arrivals(self):
        # Two bursts far apart: the second burst sees an empty queue.
        mask = admit(QueueDepthAdmission(max_depth=8),
                     [0.0] * 16 + [10_000.0] * 16, num_servers=1,
                     est_query_us=10.0)
        assert mask.sum() == 16                     # 8 per burst

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucketAdmission(rate_qps=-1.0)
        with pytest.raises(ValueError):
            TokenBucketAdmission(burst=0)
        with pytest.raises(ValueError):
            QueueDepthAdmission(max_depth=0)
        with pytest.raises(ValueError):
            DeadlineAwareAdmission(margin=0.0)

    @pytest.mark.parametrize("build, field", [
        (lambda: DeadlineAwareAdmission(margin=np.nan), "margin"),
        (lambda: DeadlineAwareAdmission(margin=np.inf), "margin"),
        (lambda: TokenBucketAdmission(rate_qps=np.nan), "rate_qps"),
        (lambda: TokenBucketAdmission(rate_qps=np.inf), "rate_qps"),
        (lambda: TokenBucketAdmission(burst=np.nan), "burst"),
        (lambda: TokenBucketAdmission(burst=np.inf), "burst"),
        (lambda: QueueDepthAdmission(max_depth=np.nan), "max_depth"),
        (lambda: QueueDepthAdmission(max_depth=np.inf), "max_depth"),
        (lambda: QueueDepthAdmission(max_depth=2.7), "max_depth"),
    ], ids=["margin-nan", "margin-inf", "rate-nan", "rate-inf",
            "burst-nan", "burst-inf", "depth-nan", "depth-inf",
            "depth-fractional"])
    def test_bad_parameters_rejected(self, build, field):
        # NaN passed every ``<= 0`` check and the controller then shed
        # nothing; max_depth=inf raised a bare OverflowError and 2.7
        # silently became 2.
        with pytest.raises(ValueError, match=field + " must"):
            build()

    def test_integral_float_depth_accepted(self):
        assert QueueDepthAdmission(max_depth=3.0).max_depth == 3


class TestMMPPArrivals:
    def test_deterministic_and_monotone(self):
        process = MMPPArrivalProcess.from_mean(50_000.0, seed=5)
        times_a = process.arrival_times_us(500)
        times_b = MMPPArrivalProcess.from_mean(
            50_000.0, seed=5).arrival_times_us(500)
        assert np.array_equal(times_a, times_b)
        assert (np.diff(times_a) >= 0).all()
        assert times_a.size == 500

    def test_mean_rate_matches_target(self):
        process = MMPPArrivalProcess.from_mean(50_000.0, seed=1)
        assert process.mean_rate_qps == pytest.approx(50_000.0)
        times = process.arrival_times_us(20_000)
        measured = (times.size - 1) / (times[-1] - times[0]) * 1e6
        assert measured == pytest.approx(50_000.0, rel=0.10)

    def test_burstier_than_poisson(self):
        mmpp = MMPPArrivalProcess.from_mean(50_000.0, burstiness=8.0,
                                            seed=2)
        poisson = PoissonArrivalProcess(50_000.0, seed=2)
        gaps_m = np.diff(mmpp.arrival_times_us(20_000))
        gaps_p = np.diff(poisson.arrival_times_us(20_000))
        cv_m = gaps_m.std() / gaps_m.mean()
        cv_p = gaps_p.std() / gaps_p.mean()
        assert cv_p == pytest.approx(1.0, abs=0.1)   # exponential gaps
        assert cv_m > 1.2 * cv_p

    def test_trace_replay_from_mmpp_scales_burst_shape(self):
        """The recorded gap trace rate-scales without reshaping bursts."""
        base = TraceReplayArrivalProcess.from_mmpp(1_000.0, 500, seed=4)
        fast = TraceReplayArrivalProcess.from_mmpp(2_000.0, 500, seed=4)
        assert base.gaps_us.size == 500
        assert np.allclose(base.gaps_us, 2.0 * fast.gaps_us)
        assert fast.mean_rate_qps == pytest.approx(2 * base.mean_rate_qps)

    def test_validation(self):
        with pytest.raises(ValueError):
            MMPPArrivalProcess(0.0, 1.0, 10.0, 10.0)
        with pytest.raises(ValueError):
            MMPPArrivalProcess(1.0, 2.0, 10.0, 10.0)   # high < low
        with pytest.raises(ValueError):
            MMPPArrivalProcess(2.0, 1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            MMPPArrivalProcess.from_mean(0.0)
        with pytest.raises(ValueError):
            MMPPArrivalProcess.from_mean(1.0, burstiness=0.5)
        with pytest.raises(ValueError):
            MMPPArrivalProcess.from_mean(1.0, high_fraction=1.0)
        with pytest.raises(ValueError):
            MMPPArrivalProcess.from_mean(1.0).arrival_times_us(-1)


class TestEDFQueue:
    def test_edf_reorders_by_priority(self):
        # Both batches waiting when the server frees: EDF picks the
        # tighter deadline even though it arrived later.
        ready = [0.0, 1.0, 2.0]
        services = [10.0, 5.0, 5.0]
        priorities = [0.0, 100.0, 50.0]
        starts, completes, _ = simulate_batch_queue(
            ready, services, num_servers=1, order="edf",
            priorities=priorities)
        assert starts.tolist() == [0.0, 15.0, 10.0]
        assert completes.tolist() == [10.0, 20.0, 15.0]

    def test_edf_matches_fifo_on_equal_priorities(self):
        rng = np.random.default_rng(0)
        ready = np.cumsum(rng.exponential(5.0, size=200))
        services = rng.exponential(8.0, size=200)
        fifo = simulate_batch_queue(ready, services, 2, order="fifo")
        edf = simulate_batch_queue(ready, services, 2, order="edf",
                                   priorities=np.zeros(200))
        # Equal priorities tie-break on ready time = FIFO order.
        assert np.allclose(fifo[0], edf[0])
        assert np.allclose(fifo[1], edf[1])
        assert fifo[2] == edf[2]

    def test_edf_idles_until_next_arrival(self):
        starts, _, depth = simulate_batch_queue(
            [0.0, 100.0], [10.0, 10.0], 1, order="edf",
            priorities=[1.0, 0.0])
        assert starts.tolist() == [0.0, 100.0]
        assert depth == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_batch_queue([0.0], [1.0], 1, order="lifo")
        with pytest.raises(ValueError):
            simulate_batch_queue([0.0], [1.0], 1, order="edf")
        with pytest.raises(ValueError):
            simulate_batch_queue([0.0], [1.0], 1, order="edf",
                                 priorities=[1.0, 2.0])

    def test_batch_earliest_deadline(self):
        queries = [make_query(0, 0.0, deadline_us=500.0),
                   make_query(1, 1.0, deadline_us=300.0),
                   make_query(2, 2.0)]
        earliest = batch_columns([
            QueryBatch(queries=queries),
            QueryBatch(queries=[make_query(3, 0.0)])]).earliest_deadline_us()
        assert earliest[0] == 300.0
        # NaN: no query of the batch carries a deadline.
        assert np.isnan(earliest[1])

    def test_edf_engine_prioritises_urgent_batches(self):
        # Two batches ready at once behind a busy server; the urgent one
        # (tight deadline) must start first under EDF.
        blocker = QueryBatch(queries=[make_query(0, 0.0)],
                             open_us=0.0, formed_us=0.0)
        loose = QueryBatch(queries=[make_query(1, 1.0,
                                               deadline_us=1_000.0)],
                           open_us=1.0, formed_us=1.0)
        urgent = QueryBatch(queries=[make_query(2, 2.0,
                                                deadline_us=30.0)],
                            open_us=2.0, formed_us=2.0)
        batches = batch_columns([blocker, loose, urgent])
        services = [20.0, 10.0, 10.0]
        fifo = EventEngine().summarize("unit", batches, services)
        edf = EventEngine(order="edf").summarize("unit", batches,
                                                 services)
        assert edf.extras["queue_order"] == "edf"
        assert edf.extras["engine"] == "event-edf"
        # FIFO finishes the urgent query at 40 (misses), EDF at 28.
        fifo_slo = fifo.extras["slo"]
        edf_slo = edf.extras["slo"]
        assert edf_slo["deadlines_met"] > fifo_slo["deadlines_met"]


class TestClusterSLOIntegration:
    def build_queries(self, qps=200_000.0, num_queries=48):
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

    def test_no_slo_no_extras(self):
        report = self.build_cluster().simulate(self.build_queries())
        assert "slo" not in report.extras

    def test_passive_accounting_keeps_percentiles(self):
        cluster = self.build_cluster()
        queries = self.build_queries()
        frontend = BatchingFrontend(max_queries=4, max_delay_us=100.0)
        plain = cluster.simulate(queries, frontend=frontend,
                                 engine="event")
        accounted = cluster.simulate(queries, frontend=frontend,
                                     engine="event", slo_policy=10_000.0,
                                     admission="none")
        assert accounted.p50_us == plain.p50_us
        assert accounted.p95_us == plain.p95_us
        assert accounted.p99_us == plain.p99_us
        slo = accounted.extras["slo"]
        assert slo["num_shed"] == 0
        assert slo["admission"] == "none"
        assert slo["attainment"] == 1.0

    def test_analytic_engine_reports_slo(self):
        report = self.build_cluster().simulate(
            self.build_queries(), slo_policy=10_000.0)
        slo = report.extras["slo"]
        assert report.extras["engine"] == "analytic"
        assert slo["attainment"] == 1.0
        assert slo["goodput_qps"] > 0.0

    def test_deadline_admission_sheds_at_overload(self):
        cluster = self.build_cluster()
        frontend = BatchingFrontend(max_queries=4, max_delay_us=50.0)
        # Heavy queries arriving far faster than they serve: the FIFO
        # backlog quickly dwarfs the 60 us SLO.
        traces = make_production_table_traces(
            num_lookups_per_table=400, num_rows=NUM_ROWS, num_tables=4,
            seed=0)
        queries = queries_from_traces(
            traces, 400,
            PoissonArrivalProcess(rate_qps=20_000_000.0, seed=3),
            batch_size=8, pooling_factor=10)
        open_loop = cluster.simulate(queries, frontend=frontend,
                                     engine="event", slo_policy=60.0,
                                     admission="none")
        shedding = cluster.simulate(queries, frontend=frontend,
                                    engine="event", slo_policy=60.0,
                                    admission="deadline")
        open_slo = open_loop.extras["slo"]
        shed_slo = shedding.extras["slo"]
        assert open_slo["num_shed"] == 0
        assert shed_slo["num_shed"] > 0
        assert shed_slo["attainment"] > open_slo["attainment"]
        assert shed_slo["goodput_qps"] > open_slo["goodput_qps"]
        # Tail latency is conditioned on admitted queries only.
        assert shedding.num_queries == 400 - shed_slo["num_shed"]
        assert shedding.p99_us < open_loop.p99_us

    def test_estimate_query_service_us(self):
        cluster = self.build_cluster()
        queries = self.build_queries(num_queries=12)
        estimate = cluster.estimate_query_service_us(queries)
        assert estimate > 0.0
        with pytest.raises(ValueError):
            cluster.estimate_query_service_us([])

    def test_stateful_sharder_estimate_is_order_independent(self):
        """Regression: the admission probe routed from leftover replica
        counters, so repeated simulate() calls could shed differently."""
        from repro.serving import ReplicatedTableSharder

        queries = self.build_queries(num_queries=24)
        sharder = ReplicatedTableSharder.from_queries(
            2, queries, policy="load-aware", max_replicas=2,
            hot_fraction=0.1)
        cluster = self.build_cluster(sharder=sharder)
        fresh = cluster.estimate_query_service_us(queries)
        # Dirty the routing counters with an unrelated run, then
        # re-estimate: the probe must start from fresh routing state.
        cluster.simulate(self.build_queries(num_queries=16))
        assert cluster.estimate_query_service_us(queries) == fresh
        # And two back-to-back admission runs agree completely.
        first = cluster.simulate(queries, slo_policy=10_000.0,
                                 admission="queue-depth", engine="event")
        second = cluster.simulate(queries, slo_policy=10_000.0,
                                  admission="queue-depth", engine="event")
        assert first.extras["slo"] == second.extras["slo"]
        assert first.p99_us == second.p99_us

    def test_all_shed_raises(self):
        cluster = self.build_cluster()
        queries = self.build_queries(num_queries=16)
        for query in queries:
            query.arrival_us = 0.0
        with pytest.raises(ValueError, match="shed every query"):
            cluster.simulate(queries, slo_policy=0.001,
                             admission="deadline")

    def test_qps_sweep_forwards_slo_and_admission(self):
        cluster = self.build_cluster()
        reports = qps_sweep(cluster,
                            lambda qps: self.build_queries(qps=qps),
                            [100_000.0, 200_000.0], engine="event",
                            slo_policy=10_000.0, admission="queue-depth")
        for report in reports:
            slo = report.extras["slo"]
            assert slo["admission"] == "queue-depth"
            assert slo["attainment"] is not None

    def test_engine_summarize_signature_accepts_slo_info(self):
        batches = batch_columns([QueryBatch(queries=[make_query(0, 0.0)],
                                            open_us=0.0, formed_us=0.0)])
        info = {"num_offered": 2, "num_shed": 1, "offered_span_us": 10.0,
                "admission": "unit"}
        for engine in (AnalyticEngine(), EventEngine()):
            report = engine.summarize("unit", batches, [5.0],
                                      slo_info=info)
            assert report.extras["slo"]["shed_rate"] == pytest.approx(0.5)
