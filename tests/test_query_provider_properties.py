"""Property tests of the lazy trace request provider behind ``QueryStream``.

A :class:`~repro.serving.QueryStream` cuts a table's candidate request
only when a row first asks for it and fills the per-query counts from the
per-table shapes.  The references here are the eager cut
(:func:`batched_requests_from_trace`, every candidate up front) and
``ServingQuery``'s own sums and fingerprint over the requests a row
carries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import PoissonArrivalProcess, QueryStream, ServingQuery
from repro.traces import EmbeddingTrace
from repro.traces.synthetic import batched_requests_from_trace

NUM_ROWS = 64


@st.composite
def streams(draw):
    """Per-table shapes and trace lengths, a seed and a chunk schedule."""
    num_tables = draw(st.integers(1, 4))
    tables = []
    for table in range(num_tables):
        batch_size = draw(st.integers(1, 4))
        pooling_factor = draw(st.integers(1, 5))
        per_request = batch_size * pooling_factor
        # Whole candidates plus a tail shorter than one request.
        length = (draw(st.integers(1, 12)) * per_request
                  + draw(st.integers(0, per_request - 1)))
        indices = draw(st.lists(st.integers(0, NUM_ROWS - 1),
                                min_size=length, max_size=length))
        tables.append((EmbeddingTrace(table_id=table, indices=indices,
                                      num_rows=NUM_ROWS,
                                      name="T%d" % table),
                       batch_size, pooling_factor))
    chunks = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6))
    return tables, chunks, draw(st.integers(0, 2**16))


def _stream(tables, seed, num_queries):
    traces, batch_sizes, pooling_factors = zip(*tables)
    return QueryStream(list(traces),
                       PoissonArrivalProcess(rate_qps=1e5, seed=seed),
                       num_queries=num_queries,
                       batch_size=list(batch_sizes),
                       pooling_factor=list(pooling_factors))


@settings(max_examples=150, deadline=None)
@given(streams())
def test_lazy_provider_matches_eager_cut(drawn):
    tables, chunks, seed = drawn
    total = sum(chunks)
    stream = _stream(tables, seed, total)
    parts = [stream.take(count) for count in chunks]
    provider = stream.provider
    eager = [batched_requests_from_trace(trace, batch_size, pooling_factor)
             for trace, batch_size, pooling_factor in tables]

    rows, lookups, poolings, num_requests = [], [], [], []
    for part in parts:
        rows.extend(part.rows.tolist())
        lookups.extend(part.lookups.tolist())
        poolings.extend(part.poolings.tolist())
        num_requests.extend(part.num_requests.tolist())
    assert rows == list(range(total))

    fingerprints = provider.fingerprints_for(np.asarray(rows))
    for row in rows:
        requests = provider.row_requests(row)
        query = ServingQuery(query_id=row, arrival_us=0.0,
                             requests=requests)
        assert lookups[row] == query.total_lookups
        assert poolings[row] == sum(len(r.lengths) for r in requests)
        assert num_requests[row] == len(requests) == len(tables)
        assert fingerprints[row] == query.fingerprint()
        for request, candidates in zip(requests, eager):
            reference = candidates[row % len(candidates)]
            assert request.table_id == reference.table_id
            assert np.array_equal(request.indices, reference.indices)
            assert request.indices.dtype == reference.indices.dtype
            assert np.array_equal(request.lengths, reference.lengths)
            assert request.lengths.dtype == reference.lengths.dtype
            assert request.weights is None and reference.weights is None
            assert request.metadata == reference.metadata

    oneshot = _stream(tables, seed, total).take(total)
    for name in ("query_id", "arrival_us", "lookups", "poolings",
                 "num_requests", "rows"):
        assert np.concatenate([getattr(part, name) for part in parts]) \
            .tolist() == getattr(oneshot, name).tolist(), name
    assert np.isnan(np.concatenate([part.deadline_us
                                    for part in parts])).all()
    assert oneshot.provider.fingerprints_for(oneshot.rows) == fingerprints
