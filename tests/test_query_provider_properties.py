"""Property tests of the lazy trace request provider behind ``QueryStream``.

A :class:`~repro.serving.QueryStream` cuts a table's candidate request
only when a row first asks for it and fills the per-query counts from the
per-table shapes.  The references here are the eager cut
(:func:`batched_requests_from_trace`, every candidate up front) and
``ServingQuery``'s own sums and fingerprint over the requests a row
carries.

A chunk holds its per-row constants (the three count columns and the
all-NaN deadline) as read-only zero-stride views.  The column properties
check that ``take``, ``slice`` and ``concat`` -- including the batcher's
carry concat -- keep them so, with the values the materialised
``np.full`` columns held, and that only concatenating different
constants, or assigning deadlines, gives a chunk a stored column.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    FixedSLOPolicy,
    PoissonArrivalProcess,
    QueryColumns,
    QueryStream,
    ServingQuery,
    form_batch_columns,
)
from repro.serving.query_columns import BatchColumns, constant_column
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


# --------------------------------------------------------------------- #
# Zero-stride constant columns                                          #
# --------------------------------------------------------------------- #
CONSTANTS = ("lookups", "poolings", "num_requests", "deadline_us")


def _expected_constants(tables, size):
    """The materialised columns a chunk of ``size`` rows used to hold."""
    lookups = sum(batch * pooling for _, batch, pooling in tables)
    poolings = sum(batch for _, batch, _ in tables)
    return {"lookups": np.full(size, lookups, dtype=np.int64),
            "poolings": np.full(size, poolings, dtype=np.int64),
            "num_requests": np.full(size, len(tables), dtype=np.int64),
            "deadline_us": np.full(size, np.nan)}


def _assert_constant_columns(columns, tables):
    expected = _expected_constants(tables, len(columns))
    for name in CONSTANTS:
        column = getattr(columns, name)
        assert column.strides == (0,), name
        assert not column.flags.writeable, name
        assert column.dtype == expected[name].dtype, name
        np.testing.assert_array_equal(column, expected[name], err_msg=name)


@settings(max_examples=100, deadline=None)
@given(streams(), st.data())
def test_stream_constants_stay_zero_stride(drawn, data):
    tables, chunks, seed = drawn
    stream = _stream(tables, seed, sum(chunks))
    parts = [stream.take(count) for count in chunks]
    for part in parts:
        _assert_constant_columns(part, tables)
        with pytest.raises(ValueError):
            part.lookups[0] = 0
        with pytest.raises(ValueError):
            part.deadline_us[:] = 0.0
        size = len(part)
        start = data.draw(st.integers(0, size), label="start")
        stop = data.draw(st.integers(start, size), label="stop")
        _assert_constant_columns(part.slice(start, stop), tables)
        indices = data.draw(st.lists(st.integers(0, size - 1),
                                     max_size=2 * size), label="indices")
        taken = part.take(np.asarray(indices, dtype=np.int64))
        _assert_constant_columns(taken, tables)
        assert taken.rows.tolist() == part.rows[indices].tolist()
        _assert_constant_columns(part.take(part.arrival_us >= 0.0), tables)

    merged = QueryColumns.concat(parts)
    _assert_constant_columns(merged, tables)
    assert merged.rows.tolist() == list(range(sum(chunks)))


@settings(max_examples=100, deadline=None)
@given(streams(), st.integers(1, 9), st.sampled_from([0.0, 5.0, 50.0]))
def test_batcher_carry_keeps_constants_zero_stride(drawn, max_queries,
                                                   max_delay_us):
    tables, chunks, seed = drawn
    stream = _stream(tables, seed, sum(chunks))
    carry, formed_parts = None, []
    for index, count in enumerate(chunks):
        piece = stream.take(count)
        if carry is not None:
            piece = QueryColumns.concat([carry, piece])
            _assert_constant_columns(piece, tables)
        formed, carry = form_batch_columns(
            piece, max_queries, max_delay_us,
            final=index == len(chunks) - 1)
        _assert_constant_columns(formed.columns, tables)
        if carry is not None:
            _assert_constant_columns(carry, tables)
        formed_parts.append(formed)
    assert carry is None
    run = BatchColumns.concat(formed_parts)
    _assert_constant_columns(run.columns, tables)
    expected = _expected_constants(tables, len(run.columns))
    totals = [np.add.reduceat(expected[name], run.starts)
              for name in ("num_requests", "poolings", "lookups")]
    assert [column.tolist() for column in run.totals()] \
        == [column.tolist() for column in totals]


def _constant_columns(size, lookups, deadline_us=np.nan):
    return QueryColumns(
        np.arange(size), np.arange(size, dtype=np.float64),
        constant_column(deadline_us, size, np.float64),
        constant_column(lookups, size, np.int64),
        constant_column(1, size, np.int64),
        constant_column(1, size, np.int64), np.arange(size), provider=None)


@given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 9),
       st.integers(0, 9))
def test_concat_materialises_only_different_constants(first, second,
                                                      first_value,
                                                      second_value):
    merged = QueryColumns.concat([_constant_columns(first, first_value),
                                  _constant_columns(second, second_value)])
    assert merged.lookups.tolist() \
        == [first_value] * first + [second_value] * second
    assert (merged.lookups.strides == (0,)) \
        == (first_value == second_value)
    assert merged.poolings.strides == (0,)
    assert merged.deadline_us.strides == (0,)
    assert np.isnan(merged.deadline_us).all()

    stored = _constant_columns(second, first_value)
    stored.lookups = np.full(second, first_value, dtype=np.int64)
    merged = QueryColumns.concat([_constant_columns(first, first_value),
                                  stored])
    assert merged.lookups.flags.c_contiguous
    assert merged.lookups.flags.writeable
    assert merged.lookups.tolist() == [first_value] * (first + second)


def test_concat_tells_signed_zeros_apart():
    merged = QueryColumns.concat([_constant_columns(2, 1, 0.0),
                                  _constant_columns(2, 1, -0.0)])
    assert merged.deadline_us.flags.c_contiguous
    assert np.signbit(merged.deadline_us).tolist() \
        == [False, False, True, True]


@settings(max_examples=100, deadline=None)
@given(streams(), st.floats(1.0, 1e4))
def test_deadlines_on_one_chunk_leave_others_nan(drawn, slo_us):
    tables, chunks, seed = drawn
    stream = _stream(tables, seed, sum(chunks))
    parts = [stream.take(count) for count in chunks]
    first = parts[0]
    view = first.slice(0, len(first))
    FixedSLOPolicy(slo_us).assign_deadlines_columns(first)
    assert first.deadline_us.tolist() \
        == (first.arrival_us + slo_us).tolist()
    assert first.deadline_us.flags.writeable
    _assert_constant_columns(view, tables)
    for part in parts[1:]:
        _assert_constant_columns(part, tables)
    merged = QueryColumns.concat(parts)
    assert merged.deadline_us.flags.c_contiguous
    assert np.isnan(merged.deadline_us[len(first):]).all()
    assert merged.deadline_us[:len(first)].tolist() \
        == first.deadline_us.tolist()
