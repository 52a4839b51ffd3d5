"""Serving-scale benchmark: end-to-end queries/sec on million-query runs.

Measures the full serving pipeline -- arrival generation, column-backed
query construction, admission-free batching, the compiled event-loop
kernels and report summarisation -- at 100k and 1M queries per run
(interpolating service model, warm service cache) for every available
event-kernel flavor.

All timed runs stream queries through ``simulate(stream_chunk=...)`` so
memory stays O(chunk); the reports are asserted byte-identical across
every flavor and against a one-shot materialised run.  Recorded
throughput floors live in the
``serving_scale`` block of ``perf_reference.json`` next to the exact-sim
floors and are enforced with the same loose ``REGRESSION_FLOOR``
mechanism (refresh with ``REPRO_PERF_WRITE_REFERENCE=1``).

The observability section exercises ``repro.obs``: one extra run with
tracing + metrics enabled must produce a byte-identical report and a
schema-valid Perfetto trace (written to ``BENCH_serving_trace.json`` for
the CI artifact), and -- full mode only, where timings are stable --
the *disabled*-mode throughput must stay within
``obs_disabled_overhead_floor`` (2%) of the recorded pre-obs floors:
merging the observability layer must cost nothing when it is off.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

from repro.core.kernels import KERNEL_FLAVOR
from repro.obs import Tracer, chrome_trace, validate_chrome_trace
from repro.perf.service_model import InterpolatingServiceModel
from repro.serving import (
    BatchingFrontend,
    PoissonArrivalProcess,
    QueryStream,
    ShardedServingCluster,
    query_columns_from_traces,
)
from repro.serving.event_kernels import force_flavor
from repro.traces import make_production_table_traces

from workloads import NUM_ROWS, VECTOR_BYTES, address_of, format_table, \
    smoke_scaled

SMOKE_MODE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
MODE = "smoke" if SMOKE_MODE else "full"
REFERENCE_PATH = Path(__file__).resolve().parent / "perf_reference.json"
WRITE_REFERENCE = os.environ.get("REPRO_PERF_WRITE_REFERENCE", "") \
    not in ("", "0")
#: Loose CI floor: fail only when measured throughput drops more than
#: this factor below the recorded reference (same knob as
#: bench_simulator_perf).
REGRESSION_FLOOR = 2.0

#: Query counts per timed run.  Full mode is the headline measurement
#: (100k and 1M); smoke keeps the same shape at CI-friendly sizes while
#: still spanning several stream chunks.
SIZES = smoke_scaled((100_000, 1_000_000), (2_000, 8_000))
STREAM_CHUNK = smoke_scaled(65_536, 1_024)
OFFERED_QPS = 120_000.0
NUM_NODES = 2
NUM_FRONTENDS = 4
NUM_TABLES = smoke_scaled(8, 4)
QUERY_BATCH = 4
QUERY_POOLING = smoke_scaled(20, 8)
NODE_SYSTEM = "recnmp-opt"
#: Multi-frontend FIFO dispatch: the event engine path the compiled
#: kernels replace.
ENGINE = "event"

#: Observability must be free when off: with trace/metrics disabled the
#: streamed pipeline may lose at most this fraction of the recorded
#: pre-obs throughput floors (enforced full mode only -- smoke-sized
#: runs are too short for a 2% timing check).
OBS_DISABLED_OVERHEAD = 0.02
#: Perfetto trace emitted by the enabled run, uploaded by CI.
TRACE_ARTIFACT = "BENCH_serving_trace.json"


def _arrivals():
    return PoissonArrivalProcess(rate_qps=OFFERED_QPS, seed=1)


def _flavors():
    flavors = ["python", "flat-python"]
    if KERNEL_FLAVOR == "numba":
        flavors.append("numba")
    return flavors


def compute_serving_scale():
    traces = make_production_table_traces(
        num_lookups_per_table=QUERY_BATCH * QUERY_POOLING * 8,
        num_rows=NUM_ROWS, num_tables=NUM_TABLES, seed=0)
    model = InterpolatingServiceModel(traces)
    frontend = BatchingFrontend(max_queries=8, max_delay_us=100.0)
    report = {"engine": ENGINE, "stream_chunk": STREAM_CHUNK,
              "flavors": _flavors(), "sizes": {}}
    with ShardedServingCluster(
            num_nodes=NUM_NODES, node_system=NODE_SYSTEM,
            num_frontends=NUM_FRONTENDS, address_of=address_of,
            vector_size_bytes=VECTOR_BYTES) as cluster:

        def stream_run(num_queries, flavor):
            """One timed end-to-end run: generation included."""
            with force_flavor(flavor):
                start = time.perf_counter()
                stream = QueryStream(traces, _arrivals(),
                                     num_queries=num_queries,
                                     batch_size=QUERY_BATCH,
                                     pooling_factor=QUERY_POOLING)
                result = cluster.simulate(
                    stream, frontend=frontend, engine=ENGINE,
                    service_model=model, stream_chunk=STREAM_CHUNK)
                seconds = time.perf_counter() - start
            return result, seconds

        # Warm the interpolation grid and the content-keyed service
        # cache so every timed run sees the same steady state (the
        # cycled request pool bounds the distinct batch compositions).
        stream_run(min(SIZES), "flat-python")

        for num_queries in SIZES:
            entry = {"num_queries": num_queries, "runs": {}}
            baseline = None
            for flavor in _flavors():
                flavor_report, seconds = stream_run(num_queries, flavor)
                entry["runs"][flavor] = {
                    "seconds": round(seconds, 4),
                    "queries_per_sec": round(num_queries / seconds, 1)}
                if baseline is None:
                    baseline = dataclasses.asdict(flavor_report)
                assert dataclasses.asdict(flavor_report) == baseline, \
                    "streamed %s report diverged from the %s flavor at " \
                    "%d queries" % (flavor, _flavors()[0], num_queries)
            report["sizes"][str(num_queries)] = entry

        # Chunked streaming is byte-identical to a one-shot materialised
        # columns run (same batcher, no chunk boundaries).
        num_queries = min(SIZES)
        columns = query_columns_from_traces(
            traces, num_queries, _arrivals(),
            batch_size=QUERY_BATCH, pooling_factor=QUERY_POOLING)
        oneshot = cluster.simulate(columns, frontend=frontend,
                                   engine=ENGINE, service_model=model)
        chunked, _ = stream_run(num_queries, "flat-python")
        assert dataclasses.asdict(oneshot) == dataclasses.asdict(chunked), \
            "one-shot columns run diverged from the chunked stream"

        # Observability: the traced+metered run must not perturb the
        # report, and its trace must validate against the checked-in
        # schema.  The enabled/disabled wall-clock pair is reported so
        # the cost of turning tracing on stays visible in CI logs.
        plain_report, plain_seconds = stream_run(num_queries,
                                                 "flat-python")
        tracer = Tracer(label="bench-serving-scale")
        with force_flavor("flat-python"):
            start = time.perf_counter()
            stream = QueryStream(traces, _arrivals(),
                                 num_queries=num_queries,
                                 batch_size=QUERY_BATCH,
                                 pooling_factor=QUERY_POOLING)
            traced_report = cluster.simulate(
                stream, frontend=frontend, engine=ENGINE,
                service_model=model, stream_chunk=STREAM_CHUNK,
                trace=tracer, metrics=True)
            traced_seconds = time.perf_counter() - start
        assert dataclasses.asdict(traced_report) \
            == dataclasses.asdict(plain_report), \
            "enabling trace+metrics changed the serving report"
        trace = chrome_trace(tracer)
        validate_chrome_trace(trace)
        Path(TRACE_ARTIFACT).write_text(json.dumps(trace))
        report["obs"] = {
            "num_queries": num_queries,
            "plain_seconds": round(plain_seconds, 4),
            "traced_seconds": round(traced_seconds, 4),
            "enabled_overhead": round(
                traced_seconds / plain_seconds - 1.0, 4),
            "trace_events": len(trace["traceEvents"]),
            "trace_path": TRACE_ARTIFACT,
        }
    return report


def _load_reference():
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text())


def _maybe_write_reference(reference, report):
    """Refresh the ``serving_scale`` throughput floors for this mode."""
    if not WRITE_REFERENCE or reference is None:
        return
    recorded = reference.setdefault(MODE, {}).setdefault("recorded", {})
    recorded["serving_scale"] = {
        "stream_chunk": report["stream_chunk"],
        "obs_disabled_overhead_floor": OBS_DISABLED_OVERHEAD,
        "sizes": {
            size: {name: run["queries_per_sec"]
                   for name, run in entry["runs"].items()}
            for size, entry in report["sizes"].items()},
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")


def bench_serving_scale(benchmark):
    report = benchmark.pedantic(compute_serving_scale, rounds=1,
                                iterations=1)
    reference = _load_reference()
    _maybe_write_reference(reference, report)
    rows = []
    for size, entry in report["sizes"].items():
        for name, run in entry["runs"].items():
            rows.append((size, name, run["seconds"],
                         round(run["queries_per_sec"])))
    print()
    print(format_table(
        "Serving scale: end-to-end queries/sec (%s engine, chunk %d)"
        % (ENGINE, report["stream_chunk"]),
        ["queries", "flavor", "seconds", "queries/sec"], rows))

    obs = report.get("obs")
    if obs:
        print("obs: traced run at %d queries %.4fs vs %.4fs plain "
              "(%+.1f%% enabled overhead), %d trace events -> %s"
              % (obs["num_queries"], obs["traced_seconds"],
                 obs["plain_seconds"], 100 * obs["enabled_overhead"],
                 obs["trace_events"], obs["trace_path"]))

    # Loose CI floors vs the recorded throughput, same mechanism as the
    # exact-sim floors in bench_simulator_perf.
    recorded = ((reference or {}).get(MODE, {})
                .get("recorded", {}).get("serving_scale"))
    if recorded and not WRITE_REFERENCE:
        for size, entry in report["sizes"].items():
            pinned = recorded["sizes"].get(size, {})
            for name, run in entry["runs"].items():
                if name not in pinned:
                    continue
                floor = pinned[name] / REGRESSION_FLOOR
                assert run["queries_per_sec"] >= floor, \
                    "serving-scale throughput on %s at %s queries " \
                    "regressed >%.0fx below the recorded %.0f " \
                    "queries/sec (refresh with " \
                    "REPRO_PERF_WRITE_REFERENCE=1 if this host is " \
                    "legitimately slower)" \
                    % (name, size, REGRESSION_FLOOR, pinned[name])
        # Disabled-mode obs floor: the timed flavor runs above executed
        # with trace/metrics off, so shipping repro.obs may not cost
        # more than the recorded allowance against the pre-obs floors.
        # Full mode only: smoke runs are far too short to resolve 2%.
        if not SMOKE_MODE:
            allowance = recorded.get("obs_disabled_overhead_floor",
                                     OBS_DISABLED_OVERHEAD)
            for size, entry in report["sizes"].items():
                pinned = recorded["sizes"].get(size, {})
                for name, run in entry["runs"].items():
                    if name not in pinned:
                        continue
                    floor = pinned[name] * (1.0 - allowance)
                    assert run["queries_per_sec"] >= floor, \
                        "disabled-mode observability overhead: %s at " \
                        "%s queries measured %.0f queries/sec, more " \
                        "than %.0f%% below the recorded pre-obs %.0f " \
                        "(the obs layer must be free when off)" \
                        % (name, size, run["queries_per_sec"],
                           100 * allowance, pinned[name])
    print("SERVING_SCALE_JSON: %s" % json.dumps(report))
