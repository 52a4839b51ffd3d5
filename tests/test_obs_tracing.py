"""Integration tests for the tracing layer (:mod:`repro.obs`).

The two contracts the tentpole stands on:

* **Zero perturbation** -- a run with tracing and metrics enabled
  produces a byte-identical ``ServingReport`` (as a dict) to the same
  run with them off, across engines, event-kernel flavors and chunked
  streaming.  Spans are reconstructed post hoc from kernel output
  arrays, so this must hold exactly.
* **Faithful reconstruction** -- the per-query stage spans sum to the
  engine's reported latencies (within float tolerance, never ``==``:
  ``(formed-arrival)+(start-formed)+(complete-start)`` associates
  differently than ``complete-arrival``), timestamps are monotone
  through the lifecycle, the queue-depth series peaks at the engine's
  ``max_queue_depth``, and the Chrome trace validates against the
  checked-in schema.

The 100k-query EDF run at the bottom is the acceptance test from the
PR issue.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    FixedSLOPolicy,
    PoissonArrivalProcess,
    QueryStream,
    ShardedServingCluster,
    event_kernels,
    queries_from_traces,
    query_columns_from_traces,
)
from repro.serving.event_kernels import force_flavor
from repro.traces import make_production_table_traces

FLAVORS = ["python", "flat-python"]
if event_kernels.active_flavor() == "numba":
    FLAVORS.append("numba")

NUM_QUERIES = 400
RATE_QPS = 120_000.0


@pytest.fixture(scope="module")
def traces():
    return make_production_table_traces(num_lookups_per_table=640,
                                        num_rows=4000, num_tables=4,
                                        seed=0)


def _arrivals(seed=1):
    return PoissonArrivalProcess(rate_qps=RATE_QPS, seed=seed)


def _columns(traces, num_queries=NUM_QUERIES):
    return query_columns_from_traces(traces, num_queries, _arrivals())


def _cluster():
    return ShardedServingCluster(num_nodes=2, node_system="recnmp-opt")


def _stage_sum(spans):
    """Batching + queue + service time of every query."""
    return ((spans["formed_us"] - spans["arrival_us"])
            + (spans["start_us"] - spans["formed_us"])
            + (spans["complete_us"] - spans["start_us"]))


def _traced_run(traces, engine, **kwargs):
    tracer = Tracer(label="test")
    with _cluster() as cluster:
        report = cluster.simulate(_columns(traces), engine=engine,
                                  trace=tracer, metrics=True, **kwargs)
    return tracer, report


# --------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["analytic", "event", "event-edf"])
    def test_traced_report_identical_across_engines(self, traces, engine):
        with _cluster() as cluster:
            plain = cluster.simulate(_columns(traces), engine=engine)
            traced = cluster.simulate(_columns(traces), engine=engine,
                                      trace=Tracer(), metrics=True)
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_traced_report_identical_across_flavors(self, traces, flavor):
        with _cluster() as cluster, force_flavor(flavor):
            plain = cluster.simulate(_columns(traces), engine="event")
            traced = cluster.simulate(_columns(traces), engine="event",
                                      trace=Tracer(), metrics=True)
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain)

    def test_traced_report_identical_with_stream_chunk(self, traces):
        with _cluster() as cluster:
            plain = cluster.simulate(_columns(traces), engine="event-edf",
                                     slo_policy=FixedSLOPolicy(800.0),
                                     admission="queue-depth",
                                     stream_chunk=64)
            traced = cluster.simulate(_columns(traces),
                                      engine="event-edf",
                                      slo_policy=FixedSLOPolicy(800.0),
                                      admission="queue-depth",
                                      stream_chunk=64,
                                      trace=Tracer(), metrics=True)
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain)

    def test_object_query_path_identical(self, traces):
        queries = queries_from_traces(traces, NUM_QUERIES, _arrivals())
        with _cluster() as cluster:
            plain = cluster.simulate(list(queries), engine="event")
            traced = cluster.simulate(list(queries), engine="event",
                                      trace=Tracer(), metrics=True)
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain)


# --------------------------------------------------------------------- #
class TestSpanReconstruction:
    def test_span_sums_reconcile_with_latencies(self, traces):
        tracer, _ = _traced_run(traces, "event")
        spans = tracer.query_spans()
        assert np.allclose(_stage_sum(spans), spans["latency_us"],
                           rtol=1e-9, atol=1e-6)

    def test_timestamps_monotone_through_lifecycle(self, traces):
        tracer, _ = _traced_run(traces, "event")
        spans = tracer.query_spans()
        assert np.all(spans["arrival_us"] <= spans["formed_us"])
        assert np.all(spans["formed_us"] <= spans["start_us"])
        assert np.all(spans["start_us"] <= spans["complete_us"])

    def test_queue_depth_series_peaks_at_reported_max(self, traces):
        tracer, _ = _traced_run(traces, "event")
        times, depth = tracer.queue_depth_series()
        assert np.all(np.diff(times) >= 0)
        assert depth.min() >= 0
        assert depth.max() == tracer.capture.max_queue_depth
        assert depth[-1] == 0          # every batch eventually starts

    def test_frontend_assignments_never_overlap_a_lane(self, traces):
        tracer, report = _traced_run(traces, "event")
        capture = tracer.capture
        lanes = tracer.frontend_assignments()
        assert lanes.min() >= 0 and lanes.max() < report.num_servers
        for lane in range(report.num_servers):
            mask = lanes == lane
            starts = capture.batch_start_us[mask]
            completes = capture.batch_complete_us[mask]
            order = np.argsort(starts, kind="stable")
            assert np.all(completes[order][:-1] <= starts[order][1:]
                          + 1e-6)

    def test_node_accounting_from_routing_replay(self, traces):
        tracer, _ = _traced_run(traces, "event")
        busy = tracer.node_busy_us()
        assert busy.shape == (tracer.num_nodes,)
        assert np.all(busy >= 0)
        assert np.all(tracer.node_utilization() >= 0)

    def test_analytic_capture_is_marked_approximate(self, traces):
        tracer, _ = _traced_run(traces, "analytic")
        assert tracer.capture.approximate
        validate_chrome_trace(chrome_trace(tracer))

    def test_tracer_is_single_use(self, traces):
        tracer, _ = _traced_run(traces, "event")
        with _cluster() as cluster:
            with pytest.raises(ValueError, match="fresh Tracer"):
                cluster.simulate(_columns(traces), engine="event",
                                 trace=tracer)

    def test_unused_tracer_refuses_views(self):
        with pytest.raises(ValueError, match="no run yet"):
            Tracer().query_spans()


# --------------------------------------------------------------------- #
class TestChromeTraceExport:
    def test_trace_validates_against_schema(self, traces):
        tracer, _ = _traced_run(traces, "event")
        trace = chrome_trace(tracer)
        validate_chrome_trace(trace)
        other = trace["otherData"]
        assert other["num_queries"] == NUM_QUERIES
        assert other["query_spans_truncated"] is False
        assert other["query_spans_dropped"] == 0
        assert other["time_unit"] == "simulated microseconds"

    def test_span_cap_records_truncation(self, traces):
        tracer, _ = _traced_run(traces, "event")
        trace = chrome_trace(tracer, max_query_spans=10)
        validate_chrome_trace(trace)
        assert trace["otherData"]["query_spans_emitted"] == 10
        assert trace["otherData"]["query_spans_truncated"] is True
        assert trace["otherData"]["query_spans_dropped"] \
            == NUM_QUERIES - 10

    def test_write_chrome_trace_round_trips(self, traces, tmp_path):
        tracer, _ = _traced_run(traces, "event")
        path = tmp_path / "trace.json"
        assert write_chrome_trace(tracer, path) == path
        validate_chrome_trace(json.loads(path.read_text()))

    def test_shed_queries_emit_instant_events(self, traces):
        tracer = Tracer()
        with _cluster() as cluster:
            report = cluster.simulate(
                _columns(traces), engine="event",
                slo_policy=FixedSLOPolicy(500.0), admission="deadline",
                trace=tracer)
        num_shed = report.extras["slo"]["num_shed"]
        assert tracer.shed_query_id.size == num_shed
        trace = chrome_trace(tracer)
        validate_chrome_trace(trace)
        instants = [event for event in trace["traceEvents"]
                    if event["ph"] == "i"]
        assert len(instants) == num_shed


# --------------------------------------------------------------------- #
class TestMetricsPublication:
    def test_cluster_registry_counts_the_run(self, traces):
        with _cluster() as cluster:
            report = cluster.simulate(_columns(traces), engine="event",
                                      metrics=True)
            snap = cluster.metrics.snapshot()
        assert snap["counters"]["serving.runs_total"] == 1
        assert snap["counters"]["serving.queries_total"] \
            == report.num_queries
        assert snap["counters"]["serving.batches_total"] \
            == report.num_batches
        assert snap["histograms"]["serving.query_latency_us"]["count"] \
            == report.num_queries
        assert snap["gauges"]["serving.last_offered_qps"] \
            == pytest.approx(report.offered_qps)
        assert "service_cache" in snap["collected"]

    def test_caller_owned_registry(self, traces):
        registry = MetricsRegistry()
        with _cluster() as cluster:
            cluster.simulate(_columns(traces), engine="event",
                             metrics=registry)
        assert registry.snapshot()["counters"]["serving.runs_total"] == 1

    def test_metrics_off_publishes_nothing(self, traces):
        with _cluster() as cluster:
            cluster.simulate(_columns(traces), engine="event")
            snap = cluster.metrics.snapshot()
        assert "serving.runs_total" not in snap["counters"]

    def test_dedup_counters_round_trip_reset(self, traces):
        # The PR-7 dedup/exact-sim counters now live in the registry:
        # export -> merge -> reset must round-trip through it.
        with _cluster() as cluster:
            cluster.simulate(_columns(traces), engine="event")
            exported = cluster.export_service_state()
            stats = cluster.service_stats()
            assert exported["exact_simulations"] \
                == stats["exact_simulations"]
            cluster.merge_service_state(exported)
            doubled = cluster.service_stats()
            assert doubled["exact_simulations"] \
                == 2 * stats["exact_simulations"]
            cluster.reset()
            cleared = cluster.service_stats()
        assert cleared["exact_simulations"] == 0
        assert cleared["dedup_hits"] == 0

    def test_invalid_trace_and_metrics_args_rejected(self, traces):
        with _cluster() as cluster:
            with pytest.raises(ValueError, match="Tracer"):
                cluster.simulate(_columns(traces), trace="out.json")
            with pytest.raises(ValueError, match="metrics"):
                cluster.simulate(_columns(traces), metrics="yes")


# --------------------------------------------------------------------- #
class TestAcceptance100kEDF:
    """The PR acceptance run: 100k queries, EDF, streamed, traced."""

    def test_100k_edf_trace_reconciles_and_validates(self, traces):
        num_queries = 100_000
        tracer = Tracer(label="acceptance")
        stream = QueryStream(traces, _arrivals(),
                             num_queries=num_queries)
        with _cluster() as cluster:
            report = cluster.simulate(
                stream, engine="event-edf",
                service_model=InterpolatingServiceModel(traces),
                slo_policy=FixedSLOPolicy(5_000.0),
                stream_chunk=8_192, trace=tracer, metrics=True)
        assert report.num_queries == num_queries
        spans = tracer.query_spans()
        assert spans["query_id"].size == num_queries
        # Per-query span sums reconcile with the reported latencies.
        assert np.allclose(_stage_sum(spans), spans["latency_us"],
                           rtol=1e-9, atol=1e-6)
        # And the aggregate view agrees with the report's percentiles.
        assert np.percentile(spans["latency_us"], 99.0) \
            == pytest.approx(report.p99_us, rel=1e-6)
        trace = chrome_trace(tracer)
        validate_chrome_trace(trace)
        assert trace["otherData"]["query_spans_truncated"] is True
        json.dumps(trace, allow_nan=False)
