"""Embedding-lookup trace generation and handling.

The paper's locality study and RecNMP evaluation are driven by per-table
embedding lookup traces (T1-T8 from production plus fully random traces).
The production traces are proprietary; :mod:`repro.traces.production`
synthesises statistically equivalent ones (documented in DESIGN.md).
"""

from repro.traces.trace import EmbeddingTrace, CombinedTrace
from repro.traces.synthetic import (
    random_trace,
    batched_requests_from_trace,
)
from repro.traces.production import (
    ProductionTraceGenerator,
    make_production_table_traces,
    make_combined_trace,
)

__all__ = [
    "EmbeddingTrace",
    "CombinedTrace",
    "random_trace",
    "batched_requests_from_trace",
    "ProductionTraceGenerator",
    "make_production_table_traces",
    "make_combined_trace",
]
