"""Memory regression guard for the streamed serving path.

A streamed :meth:`ShardedServingCluster.simulate` holds per-chunk
columns and temporaries plus the run-level batch columns the engine
reads.  ``tracemalloc`` traces numpy's data buffers, so the traced peak
of one run counts every such array.  The bound is per offered query: a
chunk that materialised its per-row constants (three count columns and
the all-NaN deadline, 32 bytes a query, plus their run-level
concatenation) or a chunk-sized check temporary would cross it.
"""

import tracemalloc

import numpy as np

from repro.perf.service_model import ServiceTimeModel
from repro.serving import (
    BatchingFrontend,
    PoissonArrivalProcess,
    QueryStream,
    ShardedServingCluster,
)
from repro.traces import make_production_table_traces

CHUNK = 65_536
NUM_QUERIES = 2 * CHUNK
#: Traced peak bytes per offered query (see the module docstring): the
#: zero-stride stream columns peak at about 88, materialised ones at
#: about 154.
MAX_PEAK_BYTES_PER_QUERY = 120


class PoolingCostModel(ServiceTimeModel):
    """Service time linear in a batch's poolings: no simulation."""

    name = "pooling-cost"

    def service_times_us(self, cluster, batches):
        return 1.0 + 0.05 * batches.totals()[1]


def _stream(traces, seed):
    return QueryStream(traces, PoissonArrivalProcess(4.0e6, seed=seed),
                       num_queries=NUM_QUERIES, batch_size=4,
                       pooling_factor=20)


def test_streamed_simulate_peak_memory_per_query():
    traces = make_production_table_traces(
        num_lookups_per_table=64 * 4 * 20, num_rows=4096, num_tables=8,
        seed=0)
    frontend = BatchingFrontend(max_queries=8, max_delay_us=100.0)
    with ShardedServingCluster(num_nodes=2,
                               node_system="recnmp-opt",
                               num_frontends=4) as cluster:
        def run(seed):
            return cluster.simulate(_stream(traces, seed), frontend=frontend,
                                    engine="event",
                                    service_model=PoolingCostModel(),
                                    stream_chunk=CHUNK)

        # The first run imports and memoises what every run shares.
        run(1)
        tracemalloc.start()
        try:
            report = run(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert report.num_queries == NUM_QUERIES
    assert np.isfinite(report.p99_us)
    assert peak / NUM_QUERIES < MAX_PEAK_BYTES_PER_QUERY, \
        "traced peak %d bytes = %.1f bytes per query" % (
            peak, peak / NUM_QUERIES)
