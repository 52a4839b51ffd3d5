"""Synthetic traces: a fully random trace and request batching."""

import numpy as np

from repro.dlrm.operators import SLSRequest
from repro.traces.trace import EmbeddingTrace
from repro.utils.distributions import UniformGenerator


def random_trace(num_rows, num_lookups, table_id=0, seed=None, name="random"):
    """Fully random (worst-case locality) lookup trace."""
    generator = UniformGenerator(num_rows, seed=seed)
    indices = generator.sample(num_lookups)
    return EmbeddingTrace(table_id=table_id, indices=indices,
                          num_rows=num_rows, name=name,
                          metadata={"kind": "random"})


def trace_request_count(trace, batch_size, pooling_factor):
    """Number of whole ``batch_size`` x ``pooling_factor`` requests in
    ``trace``."""
    if batch_size <= 0 or pooling_factor <= 0:
        raise ValueError("batch_size and pooling_factor must be positive")
    return len(trace) // (batch_size * pooling_factor)


def trace_request(trace, batch_size, pooling_factor, index):
    """Request ``index`` of ``trace`` cut into ``batch_size`` x
    ``pooling_factor`` requests."""
    per_request = batch_size * pooling_factor
    start = index * per_request
    return SLSRequest(table_id=trace.table_id,
                      indices=trace.indices[start:start + per_request],
                      lengths=np.full(batch_size, pooling_factor,
                                      dtype=np.int64),
                      metadata={"trace": trace.name, "request_index": index})


def batched_requests_from_trace(trace, batch_size, pooling_factor):
    """Slice a trace into :class:`SLSRequest` batches.

    Each request consumes ``batch_size * pooling_factor`` consecutive lookups
    from the trace; trailing lookups that do not fill a request are dropped.
    """
    count = trace_request_count(trace, batch_size, pooling_factor)
    return [trace_request(trace, batch_size, pooling_factor, index)
            for index in range(count)]
