"""Deterministic observability for the serving stack.

A zero-overhead-when-disabled layer spanning the whole query lifecycle
(arrival -> admission -> batching -> routing -> node queue -> service ->
completion), built from four pieces:

* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` with counters,
  gauges, fixed-bucket histograms and snapshot-time collectors; the one
  sink the cluster and its components publish numbers into.
* :mod:`repro.obs.capture` -- :class:`RunCapture`, the raw per-run
  arrays an engine deposits after its queue simulation.  Spans are
  reconstructed *post hoc* from kernel output arrays: no callbacks ever
  enter a jitted loop, so bit-identity across kernel flavors is
  untouched.
* :mod:`repro.obs.tracing` -- :class:`Tracer`, per-query lifecycle
  spans and sim-time queue-depth / per-node activity series.
* :mod:`repro.obs.exporters` -- Chrome trace-event JSON (Perfetto),
  metrics JSON snapshots, terminal tables, and the checked-in trace
  schema with its dependency-free validator.

Entry points: ``ShardedServingCluster.simulate(..., trace=Tracer(),
metrics=True)``, the CLI flags ``python -m repro serve --trace out.json
--metrics-json m.json``, and ``python -m repro report m.json``.
"""

from repro.obs.capture import RunCapture                  # noqa: F401
from repro.obs.exporters import (                         # noqa: F401
    DEFAULT_MAX_QUERY_SPANS,
    chrome_trace,
    format_metrics_table,
    load_trace_schema,
    validate_chrome_trace,
    validate_json,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (                           # noqa: F401
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    observe_finite,
)
from repro.obs.tracing import QUERY_STAGES, Tracer        # noqa: F401

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_US",
    "DEFAULT_MAX_QUERY_SPANS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QUERY_STAGES",
    "RunCapture",
    "Tracer",
    "chrome_trace",
    "format_metrics_table",
    "load_trace_schema",
    "observe_finite",
    "validate_chrome_trace",
    "validate_json",
    "write_chrome_trace",
    "write_metrics_json",
]
