"""Exporters: Chrome trace-event JSON, metrics JSON, terminal tables.

Three ways out of the observability layer:

* :func:`write_chrome_trace` -- the reconstructed timeline as Chrome
  trace-event JSON (the ``traceEvents`` format), loadable in Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``.  Batches render as
  complete ("X") slices on one track per dispatch frontend, queries as
  async begin/end ("b"/"e") stage spans, the dispatch-queue depth and
  per-node activity as counter ("C") tracks, shed queries as instants.
* :func:`write_metrics_json` -- a :class:`~repro.obs.metrics
  .MetricsRegistry` snapshot as JSON, the input of ``python -m repro
  report``.
* :func:`format_metrics_table` -- a plain-text table for terminals; it
  *returns* a string (library code never prints -- the ``obs-hygiene``
  lint rule enforces exactly that).

Traces can be huge -- a million queries would emit six million span
events -- so :func:`chrome_trace` caps per-query span emission at
``max_query_spans`` (default below), keeps *all* batch and counter
events, and records the truncation in the trace metadata.  Validation
against the checked-in ``trace_schema.json`` uses the small JSON-schema
subset interpreter in :func:`validate_json` (no external dependency).
"""

import json
from pathlib import Path

import numpy as np

from repro.obs.tracing import QUERY_STAGES

#: Default cap on per-query async span emission (3 events-pairs each);
#: batch slices and counter series are never capped.
DEFAULT_MAX_QUERY_SPANS = 20_000

#: Synthetic pids grouping the trace rows in the viewer.
_PID_FRONTENDS = 1
_PID_QUERIES = 2
_PID_CLUSTER = 3


# --------------------------------------------------------------------- #
# Chrome trace-event export                                             #
# --------------------------------------------------------------------- #
def chrome_trace(tracer, max_query_spans=DEFAULT_MAX_QUERY_SPANS):
    """The tracer's timeline as a Chrome trace-event JSON object.

    Timestamps are simulated microseconds, which is natively the Chrome
    ``ts`` unit -- the Perfetto timeline reads directly in sim time.
    """
    capture = tracer.capture
    if capture is None:
        raise ValueError("tracer holds no run; simulate with trace= "
                         "before exporting")
    events = []
    events.append(_meta(_PID_FRONTENDS, "process_name",
                        {"name": "dispatch frontends"}))
    events.append(_meta(_PID_QUERIES, "process_name",
                        {"name": "queries"}))
    events.append(_meta(_PID_CLUSTER, "process_name",
                        {"name": "cluster"}))
    lanes = tracer.frontend_assignments()
    for lane in range(capture.num_servers):
        events.append(_meta(_PID_FRONTENDS, "thread_name",
                            {"name": "frontend %d" % lane}, tid=lane))
    waits = capture.batch_start_us - capture.batch_ready_us
    for index in range(capture.num_batches):
        args = {"size": int(capture.batch_sizes[index]),
                "trigger": capture.batch_triggers[index],
                "queue_wait_us": float(waits[index])}
        if tracer.batch_nodes is not None:
            args["nodes"] = list(tracer.batch_nodes[index])
        events.append({
            "name": "batch %d" % index,
            "cat": "batch",
            "ph": "X",
            "pid": _PID_FRONTENDS,
            "tid": int(lanes[index]),
            "ts": float(capture.batch_start_us[index]),
            "dur": float(capture.batch_service_us[index]),
            "args": args,
        })
    # Dispatch-queue depth counter.
    depth_times, depths = tracer.queue_depth_series()
    for time_us, depth in zip(depth_times, depths):
        events.append({
            "name": "queue_depth",
            "cat": "queue",
            "ph": "C",
            "pid": _PID_CLUSTER,
            "tid": 0,
            "ts": float(time_us),
            "args": {"waiting_batches": int(depth)},
        })
    # Per-node activity counters from the routing replay.
    if tracer.batch_nodes is not None:
        events.extend(_node_activity_events(tracer, capture))
    # Per-query lifecycle spans (async, possibly capped).
    spans = tracer.query_spans()
    num_spans = capture.num_queries if max_query_spans is None \
        else min(capture.num_queries, int(max_query_spans))
    stage_edges = ("arrival_us", "formed_us", "start_us", "complete_us")
    for position in range(num_spans):
        span_id = "q%d" % int(spans["query_id"][position])
        for stage, begin_key, end_key in zip(QUERY_STAGES, stage_edges,
                                             stage_edges[1:]):
            for phase, key in (("b", begin_key), ("e", end_key)):
                events.append({
                    "name": stage,
                    "cat": "query",
                    "ph": phase,
                    "id": span_id,
                    "pid": _PID_QUERIES,
                    "tid": 0,
                    "ts": float(spans[key][position]),
                })
    for query_id, arrival in zip(tracer.shed_query_id,
                                 tracer.shed_arrival_us):
        events.append({
            "name": "shed q%d" % int(query_id),
            "cat": "admission",
            "ph": "i",
            "pid": _PID_QUERIES,
            "tid": 0,
            "ts": float(arrival),
            "s": "p",
        })
    metadata = dict(tracer.run_info)
    metadata.update({
        "engine": capture.engine,
        "approximate_timeline": capture.approximate,
        "num_queries": capture.num_queries,
        "num_batches": capture.num_batches,
        "query_spans_emitted": num_spans,
        "query_spans_truncated": num_spans < capture.num_queries,
        "query_spans_dropped": capture.num_queries - num_spans,
        "time_unit": "simulated microseconds",
    })
    if tracer.label is not None:
        metadata["label"] = tracer.label
    return {"traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata}


def _meta(pid, name, args, tid=0):
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "args": args}


def _node_activity_events(tracer, capture):
    """Counter track per node: batches in flight on that node."""
    events = []
    for node in range(tracer.num_nodes):
        starts = np.asarray(
            [capture.batch_start_us[index]
             for index, nodes in enumerate(tracer.batch_nodes)
             if node in nodes], dtype=np.float64)
        completes = np.asarray(
            [capture.batch_complete_us[index]
             for index, nodes in enumerate(tracer.batch_nodes)
             if node in nodes], dtype=np.float64)
        times = np.concatenate([completes, starts])
        deltas = np.concatenate(
            [np.full(completes.size, -1, dtype=np.int64),
             np.ones(starts.size, dtype=np.int64)])
        order = np.argsort(times, kind="stable")
        active = np.cumsum(deltas[order])
        for time_us, count in zip(times[order], active):
            events.append({
                "name": "node%d_active_batches" % node,
                "cat": "nodes",
                "ph": "C",
                "pid": _PID_CLUSTER,
                "tid": 0,
                "ts": float(time_us),
                "args": {"batches": int(count)},
            })
    return events


def write_chrome_trace(tracer, path,
                       max_query_spans=DEFAULT_MAX_QUERY_SPANS):
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    trace = chrome_trace(tracer, max_query_spans=max_query_spans)
    path = Path(path)
    with path.open("w") as handle:
        json.dump(trace, handle, allow_nan=False)
    return path


# --------------------------------------------------------------------- #
# Metrics JSON + terminal tables                                        #
# --------------------------------------------------------------------- #
def write_metrics_json(registry_or_snapshot, path):
    """Write a metrics snapshot as indented JSON; returns the path."""
    snapshot = registry_or_snapshot
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    path = Path(path)
    with path.open("w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def format_metrics_table(snapshot):
    """A metrics snapshot as an aligned plain-text table (one string).

    The renderer behind ``python -m repro report``: counters and gauges
    one line each, histograms as count/mean/p50/p99/max rows, collected
    component stats as ``name.key = value`` lines.
    """
    lines = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    collected = snapshot.get("collected", {})
    scalar_rows = [(name, "%d" % value)
                   for name, value in sorted(counters.items())]
    scalar_rows += [(name, "%.6g" % value)
                    for name, value in sorted(gauges.items())]
    for group, stats in sorted(collected.items()):
        scalar_rows += [("%s.%s" % (group, key), "%.6g" % value
                         if isinstance(value, float) else str(value))
                        for key, value in sorted(stats.items())]
    if scalar_rows:
        width = max(len(name) for name, _ in scalar_rows)
        lines.append("-- counters / gauges / collected --")
        lines += ["%-*s  %s" % (width, name, value)
                  for name, value in scalar_rows]
    if histograms:
        lines.append("-- histograms --")
        header = "%-36s %10s %12s %12s %12s %12s" % (
            "name", "count", "mean", "p50", "p99", "max")
        lines.append(header)
        for name, stats in sorted(histograms.items()):
            lines.append("%-36s %10d %12.4g %12.4g %12.4g %12.4g" % (
                name, stats["count"], stats["mean"], stats["p50"],
                stats["p99"], stats["max"] if stats["max"] is not None
                else float("nan")))
    if not lines:
        lines.append("(empty metrics snapshot)")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Schema validation (dependency-free JSON-schema subset)                #
# --------------------------------------------------------------------- #
_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "integer": lambda value: isinstance(value, int)
    and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
}


def validate_json(instance, schema, path="$"):
    """Validate ``instance`` against a JSON-schema *subset*.

    Supported keywords: ``type`` (scalar or list), ``required``,
    ``properties``, ``items``, ``enum``, ``anyOf``.  Raises
    ``ValueError`` naming the offending path -- enough schema to pin
    the trace format without a jsonschema dependency.
    """
    any_of = schema.get("anyOf")
    if any_of is not None:
        errors = []
        for option in any_of:
            try:
                validate_json(instance, option, path)
                return
            except ValueError as error:
                errors.append(str(error))
        raise ValueError("%s: no anyOf branch matched (%s)"
                         % (path, "; ".join(errors)))
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[kind](instance) for kind in allowed):
            raise ValueError("%s: expected %s, got %s"
                             % (path, "/".join(allowed),
                                type(instance).__name__))
    enum = schema.get("enum")
    if enum is not None and instance not in enum:
        raise ValueError("%s: %r not one of %s" % (path, instance, enum))
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise ValueError("%s: missing required key %r"
                                 % (path, key))
        properties = schema.get("properties", {})
        for key in sorted(properties):
            if key in instance:
                validate_json(instance[key], properties[key],
                              "%s.%s" % (path, key))
    if isinstance(instance, list):
        items = schema.get("items")
        if items is not None:
            for index, element in enumerate(instance):
                validate_json(element, items, "%s[%d]" % (path, index))


def load_trace_schema():
    """The checked-in Chrome-trace schema (``trace_schema.json``)."""
    schema_path = Path(__file__).with_name("trace_schema.json")
    with schema_path.open() as handle:
        return json.load(handle)


def validate_chrome_trace(trace):
    """Validate a :func:`chrome_trace` object against the schema."""
    validate_json(trace, load_trace_schema())
    return True
