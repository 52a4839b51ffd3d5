"""Queue-model validation: analytic M/G/c vs event-driven simulation.

The analytic serving engine approximates waiting-time quantiles with an
Erlang-C exponential tail; the paper's serving claims live exactly where
that approximation is least trustworthy (high utilisation).  This
benchmark sweeps utilisation from rho = 0.2 to 0.95 on the fig16-style
production workload, runs both engines over *identical* batches and
service times, and records the per-percentile analytic-vs-event error.

It also validates the interpolating service-time model that makes the
sweep affordable: interpolated per-batch service times must stay within
10% of exact cycle simulation on the fig16 workload, while making a
100k-query event-driven run at least 10x faster than exact mode.

The machine-readable summary is printed last (``QUEUE_VALIDATION_JSON:``)
so ``run_all.py`` captures it into ``BENCH_results.json``.
"""

import json
import time

import numpy as np

from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    AnalyticEngine,
    BatchingFrontend,
    EventEngine,
    PoissonArrivalProcess,
    ShardedServingCluster,
    queries_from_traces,
)
from repro.traces import make_production_table_traces

from workloads import (
    NUM_ROWS,
    VECTOR_BYTES,
    address_of,
    format_table,
    smoke_scaled,
)

SYSTEM = "recnmp-opt"
NUM_NODES = 2
NUM_FRONTENDS = 2
NUM_TABLES = 8
QUERY_BATCH = 8                 # fig16's SLS batch size per query
QUERY_POOLING = 40              # fig16's pooling factor
MAX_BATCH = 8
MAX_DELAY_US = 200.0
RHO_TARGETS = (0.2, 0.4, 0.6, 0.8, 0.9, 0.95)
SWEEP_QUERIES = smoke_scaled(20_000, 1_500)
LONG_RUN_QUERIES = smoke_scaled(100_000, 5_000)
ACCURACY_SAMPLE = smoke_scaled(48, 16)
CALIBRATION_BATCH_SIZES = smoke_scaled((1, 2, 4, 8, 16), (1, 2, 4, 8))
#: Distinct per-table requests in the trace pool: enough that consecutive
#: batches carry different compositions (a short trace cycles into a
#: handful of fingerprints, which would let the service cache make exact
#: mode look free and the interpolation error trivially zero).
REQUESTS_PER_TABLE = smoke_scaled(64, 16)
#: The long event run draws from a larger pool: production traffic does
#: not repeat a few dozen batch compositions, and the pool size bounds
#: how many distinct compositions exact mode would have to simulate.
LONG_RUN_REQUESTS_PER_TABLE = smoke_scaled(512, 32)


def build_traces(requests_per_table=REQUESTS_PER_TABLE):
    return make_production_table_traces(
        num_lookups_per_table=QUERY_BATCH * QUERY_POOLING
        * requests_per_table,
        num_rows=NUM_ROWS, num_tables=NUM_TABLES, seed=0)


def build_queries(traces, num_queries, qps, seed=2):
    return queries_from_traces(
        traces, num_queries, PoissonArrivalProcess(rate_qps=qps, seed=seed),
        batch_size=QUERY_BATCH, pooling_factor=QUERY_POOLING)


def relative_error(approx, exact):
    return (approx - exact) / exact if exact else 0.0


def compute_validation():
    traces = build_traces()
    cluster = ShardedServingCluster(
        num_nodes=NUM_NODES, node_system=SYSTEM,
        num_frontends=NUM_FRONTENDS, address_of=address_of,
        vector_size_bytes=VECTOR_BYTES)
    frontend = BatchingFrontend(max_queries=MAX_BATCH,
                                max_delay_us=MAX_DELAY_US)
    model = InterpolatingServiceModel(
        traces, batch_sizes=CALIBRATION_BATCH_SIZES)
    analytic, event = AnalyticEngine(), EventEngine()

    # ---- service-model accuracy + exact-mode cost on fig16 batches ---- #
    sample = frontend.form_batches(
        build_queries(traces, ACCURACY_SAMPLE, qps=150_000.0, seed=5))
    start = time.perf_counter()
    exact_times = [cluster.service_time_us(batch) for batch in sample]
    exact_seconds_per_batch = (time.perf_counter() - start) / len(sample)
    approx_times = model.service_times_us(cluster, sample)
    errors = [abs(relative_error(a, e))
              for a, e in zip(approx_times, exact_times)]
    accuracy = {
        "num_batches": len(sample),
        "mean_abs_error": round(float(np.mean(errors)), 4),
        "max_abs_error": round(float(np.max(errors)), 4),
        "exact_seconds_per_batch": round(exact_seconds_per_batch, 4),
    }

    # ---- calibrate the qps -> rho mapping at one reference point ----- #
    reference_qps = 150_000.0
    reference = analytic.summarize(
        cluster.describe(), *_batches_and_services(
            traces, frontend, model, cluster, SWEEP_QUERIES,
            reference_qps),
        num_servers=NUM_FRONTENDS)
    qps_per_rho = reference_qps / reference.utilization

    # ---- utilisation sweep: identical batches through both engines --- #
    sweep = []
    for target in RHO_TARGETS:
        # Batch composition shifts with offered load, so the linear
        # qps -> rho mapping drifts near saturation; refine each point
        # against the achieved utilisation (interpolated passes, cheap).
        qps = target * qps_per_rho
        for _ in range(3):
            batches, services = _batches_and_services(
                traces, frontend, model, cluster, SWEEP_QUERIES, qps)
            achieved = analytic.summarize(
                cluster.describe(), batches, services,
                num_servers=NUM_FRONTENDS).utilization
            if abs(achieved - target) < 0.01 or achieved <= 0.0:
                break
            qps *= target / achieved
        reports = {
            "analytic": analytic.summarize(
                cluster.describe(), batches, services,
                num_servers=NUM_FRONTENDS),
            "event": event.summarize(
                cluster.describe(), batches, services,
                num_servers=NUM_FRONTENDS),
        }
        measured = reports["event"]
        approx = reports["analytic"]
        # Rounded: the payload is printed for capture into
        # BENCH_results.json's bounded output_tail.
        sweep.append({
            "rho_target": target,
            "rho": round(approx.utilization, 4),
            "mean_error": round(relative_error(
                approx.mean_latency_us, measured.mean_latency_us), 4),
            "p50_error": round(relative_error(approx.p50_us,
                                              measured.p50_us), 4),
            "p95_error": round(relative_error(approx.p95_us,
                                              measured.p95_us), 4),
            "p99_error": round(relative_error(approx.p99_us,
                                              measured.p99_us), 4),
            "event_p99_us": round(measured.p99_us, 2),
            "analytic_p99_us": round(approx.p99_us, 2),
        })

    # ---- long event-driven run: interp model vs extrapolated exact --- #
    # Only the serving run itself is timed: the public entry point, which
    # forms batches, resolves interpolated service times and runs the
    # event engine on the array pipeline.
    long_queries = build_queries(build_traces(LONG_RUN_REQUESTS_PER_TABLE),
                                 LONG_RUN_QUERIES, qps=0.8 * qps_per_rho)
    start = time.perf_counter()
    long_report = cluster.simulate(long_queries, frontend, engine=event,
                                   service_model=model)
    interp_seconds = time.perf_counter() - start
    # Exact mode memoises by batch content, so it would only cycle-
    # simulate the *distinct* compositions in the stream (the trace pool
    # cycles, so many batches repeat); charge it for those alone.  Counted
    # outside the timer, on the same batches the run formed.
    long_batches = frontend.form_batches(long_queries)
    assert len(long_batches) == long_report.num_batches
    distinct_batches = len({
        tuple(batch.query_fingerprints()) for batch in long_batches})
    exact_mode_seconds = exact_seconds_per_batch * distinct_batches
    long_run = {
        "num_queries": LONG_RUN_QUERIES,
        "num_batches": long_report.num_batches,
        "num_distinct_batches": distinct_batches,
        "interp_seconds": round(interp_seconds, 3),
        "exact_mode_seconds_estimated": round(exact_mode_seconds, 1),
        "speedup_vs_exact": round(exact_mode_seconds / interp_seconds, 1),
        "p99_us": round(long_report.p99_us, 2),
        "service_model": model.stats(),
    }
    return {"workload": "fig16-serving", "system": cluster.describe(),
            "num_frontends": NUM_FRONTENDS, "sweep": sweep,
            "service_model_accuracy": accuracy, "long_run": long_run}


def _batches_and_services(traces, frontend, model, cluster, num_queries,
                          qps):
    batches = frontend.form_batches(
        build_queries(traces, num_queries, qps=qps))
    return batches, model.service_times_us(cluster, batches)


def bench_queue_validation(benchmark):
    payload = benchmark.pedantic(compute_validation, rounds=1, iterations=1)
    sweep = payload["sweep"]
    rows = [(point["rho_target"], round(point["rho"], 3),
             "%+.1f%%" % (100 * point["mean_error"]),
             "%+.1f%%" % (100 * point["p50_error"]),
             "%+.1f%%" % (100 * point["p95_error"]),
             "%+.1f%%" % (100 * point["p99_error"]))
            for point in sweep]
    print()
    print(format_table(
        "Queue validation -- analytic vs event-driven "
        "(%s, %d frontends)" % (payload["system"],
                                payload["num_frontends"]),
        ["rho target", "rho", "mean err", "p50 err", "p95 err", "p99 err"],
        rows))
    accuracy = payload["service_model_accuracy"]
    long_run = payload["long_run"]
    print("interp service model: mean |err| %.1f%%, max |err| %.1f%% "
          "over %d fig16 batches"
          % (100 * accuracy["mean_abs_error"],
             100 * accuracy["max_abs_error"], accuracy["num_batches"]))
    print("%d-query event run: %.1fs interpolated vs %.0fs exact-mode "
          "estimate (%.0fx)"
          % (long_run["num_queries"], long_run["interp_seconds"],
             long_run["exact_mode_seconds_estimated"],
             long_run["speedup_vs_exact"]))

    # The sweep must cover low to near-saturation utilisation.
    assert len(sweep) == len(RHO_TARGETS)
    assert sweep[0]["rho"] < 0.3
    assert sweep[-1]["rho"] > 0.88
    assert all(np.isfinite(point["p99_error"]) for point in sweep)
    # Engines agree on the mean where the closed form is trustworthy.
    assert abs(sweep[0]["mean_error"]) < 0.05
    # Acceptance criteria: interpolated service times within 10% of exact
    # on the fig16 workload, long event runs >= 10x faster than exact.
    assert accuracy["mean_abs_error"] < 0.10
    assert long_run["speedup_vs_exact"] >= 10.0
    # Machine-readable record, captured into BENCH_results.json.
    print("QUEUE_VALIDATION_JSON: %s" % json.dumps(payload))
