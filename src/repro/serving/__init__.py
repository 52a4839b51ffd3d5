"""Request-level traffic serving on top of the unified system interface.

Models what sits between user traffic and the memory systems the paper
studies: arrival processes (Poisson / bursty two-state MMPP / trace
replay), per-query SLO deadlines (:mod:`repro.serving.slo`) with
pluggable admission control in front of the batcher
(:mod:`repro.serving.admission`: token-bucket, queue-depth,
deadline-aware shedding), a size- and deadline-triggered batching
frontend, deterministic table sharding across serving nodes (single
placement or replication-aware with load-aware placement), and a
pluggable serving *engine* that turns per-batch simulated cycles into
p50/p95/p99 latency, sustainable QPS and -- when
deadlines are assigned -- goodput/attainment/shed accounting: the
closed-form M/G/c model (``engine="analytic"``, default) or a
discrete-event simulation of the multi-frontend dispatch queue
(``engine="event"``, FIFO; ``engine="event-edf"``,
earliest-deadline-first)::

    from repro.serving import (PoissonArrivalProcess, ShardedServingCluster,
                               queries_from_traces)
    from repro.traces import make_production_table_traces

    traces = make_production_table_traces(num_rows=20_000, num_tables=4)
    queries = queries_from_traces(
        traces, 64, PoissonArrivalProcess(rate_qps=2_000, seed=0))
    report = ShardedServingCluster(num_nodes=2,
                                   node_system="recnmp-opt-4ch").simulate(queries)
    print(report.p99_us, report.sustainable_qps)
"""

from repro.serving.arrival import (
    MMPPArrivalProcess,
    PoissonArrivalProcess,
    ServingQuery,
    TraceReplayArrivalProcess,
    queries_from_traces,
)
from repro.serving.batcher import BatchingFrontend
from repro.serving.query_columns import (
    BatchColumns,
    ColumnBatch,
    QueryColumns,
    QueryStream,
    form_batch_columns,
    query_columns_from_traces,
)
from repro.serving.slo import (
    SLO_POLICIES,
    FixedSLOPolicy,
    PerTableSLOPolicy,
    ServicePercentileSLOPolicy,
    SLOPolicy,
    available_slo_policies,
    resolve_slo_policy,
)
from repro.serving.admission import (
    ADMISSION_CONTROLLERS,
    AdmissionController,
    DeadlineAwareAdmission,
    NoAdmission,
    QueueDepthAdmission,
    TokenBucketAdmission,
    available_admission_controllers,
    resolve_admission,
)
from repro.serving.sharding import (
    ReplicatedTableSharder,
    TableSharder,
    calibrate_request_overhead_from_queries,
    calibrate_request_overhead_lookups,
    compute_table_loads,
    load_imbalance,
    table_loads_from_queries,
)
from repro.serving.queueing import (
    ServingReport,
    erlang_c,
    mgc_mean_wait_us,
    mgc_utilization,
    percentile,
    summarize_serving,
    wait_quantile_us,
)
from repro.serving.engine import (
    AnalyticEngine,
    ServingEngine,
    available_engines,
    resolve_engine,
)
from repro.serving.events import (
    EventEngine,
    simulate_batch_queue,
)
from repro.serving.cluster import ShardedServingCluster, qps_sweep

__all__ = [
    "MMPPArrivalProcess",
    "PoissonArrivalProcess",
    "ServingQuery",
    "TraceReplayArrivalProcess",
    "queries_from_traces",
    "BatchingFrontend",
    "BatchColumns",
    "ColumnBatch",
    "QueryColumns",
    "QueryStream",
    "form_batch_columns",
    "query_columns_from_traces",
    "SLO_POLICIES",
    "SLOPolicy",
    "FixedSLOPolicy",
    "PerTableSLOPolicy",
    "ServicePercentileSLOPolicy",
    "available_slo_policies",
    "resolve_slo_policy",
    "ADMISSION_CONTROLLERS",
    "AdmissionController",
    "NoAdmission",
    "TokenBucketAdmission",
    "QueueDepthAdmission",
    "DeadlineAwareAdmission",
    "available_admission_controllers",
    "resolve_admission",
    "ReplicatedTableSharder",
    "TableSharder",
    "calibrate_request_overhead_from_queries",
    "calibrate_request_overhead_lookups",
    "compute_table_loads",
    "load_imbalance",
    "table_loads_from_queries",
    "ServingReport",
    "erlang_c",
    "mgc_mean_wait_us",
    "mgc_utilization",
    "percentile",
    "summarize_serving",
    "wait_quantile_us",
    "AnalyticEngine",
    "EventEngine",
    "ServingEngine",
    "available_engines",
    "resolve_engine",
    "simulate_batch_queue",
    "ShardedServingCluster",
    "qps_sweep",
]
