"""Struct-of-arrays query representation of every serving run.

``ShardedServingCluster.simulate`` runs one pipeline, over the flat
numpy columns of this module: a :class:`QueryStream` produces them
chunk by chunk, a :class:`QueryColumns` is used as given, and a list of
:class:`~repro.serving.arrival.ServingQuery` objects is converted once
(:meth:`QueryColumns.from_queries`).  No stage reads a per-query
object: SLO policies and admission controllers decide over whole
columns (:meth:`~repro.serving.slo.SLOPolicy.slack_column`,
:meth:`~repro.serving.admission.AdmissionController.admit_mask`), and
only the exact service path resolves a batch's SLS requests:

* :class:`QueryColumns` -- the per-query arrays (ids, arrivals,
  deadlines, per-query lookup/pooling counts) plus a *request provider*
  that resolves each query's SLS requests (cut on first use) and
  fingerprint.  Slicing, sorting and concatenation are array ops.  A
  column holding one value in every row may be a read-only zero-stride
  view (:func:`constant_column`), which they keep zero-stride.
* :func:`form_batch_columns` -- the two-trigger batcher
  (:class:`~repro.serving.batcher.BatchingFrontend` semantics) as
  whole-chunk array passes instead of a per-query loop: a shifted
  comparison finds the full batches, and a walk picks the batch
  starts, at high load once per partial batch with the runs of full
  ones emitted whole.  A carry-out open batch lets chunked streaming
  reproduce the one-shot batching byte for byte.
* :class:`BatchColumns` / :class:`ColumnBatch` -- the formed batches as
  arrays (formation times, sizes, triggers, per-batch deadline minima
  and request/pooling/lookup totals) plus per-batch views for the
  exact service path.  They are the one batch form: the batcher
  returns them, and service models and engines take nothing else.
* :class:`QueryStream` -- a resumable generator of ``QueryColumns``
  chunks from traces plus an arrival process, the O(chunk)-memory
  source behind ``ShardedServingCluster.simulate(stream_chunk=N)``.

Everything here is representation, not policy: fingerprints and
aggregates are defined by ``ServingQuery``, and batch boundaries,
formation times and triggers by the per-query two-trigger loop that
``tests/queue_oracles.py`` keeps as the batching specification
(``form_batches``).  Both are reproduced exactly (pinned by
``tests/test_query_columns.py``, ``tests/test_serving_properties.py``
and the object-pipeline goldens of ``tests/test_serving_golden.py``).
"""

import hashlib
import math
import numbers

import numpy as np

from repro.dlrm.operators import SLSRequest
from repro.traces.synthetic import (
    batched_requests_from_trace,
    trace_request,
    trace_request_count,
)

#: Residue-pattern periods above this fall back to a per-pattern dict;
#: below it, one digest per ``row % period`` covers every query.
_MAX_DIGEST_PERIOD = 1 << 16

#: Chunks of at most this many queries take the per-batch walk whatever
#: their partial share: there the run walk's fixed array passes cost
#: more (44 against 18 us at 256 queries, 79 against 48 us at 1,024).
_LIST_WALK_MAX_QUERIES = 1024


def _per_table(value, num_tables, name):
    """Per-table integers from a scalar or a per-trace sequence."""
    values = [value] * num_tables if np.ndim(value) == 0 else list(value)
    if len(values) != num_tables:
        raise ValueError("need one %s per trace (%d traces, %d values)"
                         % (name.replace("_", " "), num_tables, len(values)))
    if not all(isinstance(entry, numbers.Integral) for entry in values):
        raise ValueError("%s must be an integer or one per trace, got %r"
                         % (name, value))
    return [int(entry) for entry in values]


class _CycledRequests:
    """Request provider cycling per-table candidate requests by row id.

    The provider behind :func:`query_columns_from_traces` and
    :class:`QueryStream` (and so of
    :func:`repro.serving.arrival.queries_from_traces`): each trace is
    cut, in order, into ``batch_size`` x ``pooling_factor`` candidates,
    and row ``r`` carries candidate ``r % count`` of every table.  A
    candidate is cut when first asked for, then memoised.  All
    candidates of a table share its shape, so per-query counts are
    constants.  The content of row ``r`` repeats with period
    lcm(candidate counts), so a million-query stream usually needs only
    a handful of distinct digests.
    """

    def __init__(self, traces, batch_size, pooling_factor):
        self.traces = list(traces)
        num_tables = len(self.traces)
        self.shapes = list(zip(
            _per_table(batch_size, num_tables, "batch_size"),
            _per_table(pooling_factor, num_tables, "pooling_factor")))
        if not num_tables:
            raise ValueError("need at least one table of requests")
        self._counts = []
        for trace, (table_batch, table_pooling) in zip(self.traces,
                                                       self.shapes):
            count = trace_request_count(trace, table_batch, table_pooling)
            if not count:
                raise ValueError(
                    "trace %r too short for one %dx%d request"
                    % (trace.name, table_batch, table_pooling))
            # One request over every candidate's lookups checks them in
            # one pass; if it fails, cutting in order raises the first
            # failing candidate's own error.
            try:
                SLSRequest(trace.table_id,
                           trace.indices[:count * table_batch
                                         * table_pooling],
                           np.full(count * table_batch, table_pooling))
            except ValueError:
                batched_requests_from_trace(trace, table_batch,
                                            table_pooling)
                raise
            self._counts.append(count)
        #: Per-query totals: every row carries one request per table.
        self.lookups = sum(b * f for b, f in self.shapes)
        self.poolings = sum(b for b, _ in self.shapes)
        period = math.lcm(*self._counts)
        #: Row-content period; 0 disables the periodic digest cache.
        self.period = period if period <= _MAX_DIGEST_PERIOD else 0
        self._requests = [[None] * count for count in self._counts]
        self._content = [[None] * count for count in self._counts]
        self._digests = {}

    def _candidate(self, table, candidate):
        """Candidate request ``candidate`` of ``table`` (cut once)."""
        request = self._requests[table][candidate]
        if request is None:
            request = trace_request(self.traces[table],
                                    *self.shapes[table], candidate)
            self._requests[table][candidate] = request
        return request

    def row_requests(self, row):
        """The SLS requests of row ``row`` (shared candidate objects)."""
        return [self._candidate(table, row % count)
                for table, count in enumerate(self._counts)]

    def _candidate_content(self, table, candidate):
        """Fingerprint bytes of one candidate request (memoised)."""
        content = self._content[table][candidate]
        if content is None:
            request = self._candidate(table, candidate)
            content = (str(request.table_id).encode()
                       + np.ascontiguousarray(request.indices).tobytes()
                       + np.ascontiguousarray(request.lengths).tobytes())
            self._content[table][candidate] = content
        return content

    def fingerprints_for(self, rows):
        """Per-row content digests of an array of row ids -- equal to the
        digests ``ServingQuery`` objects with the same requests report;
        memoised per residue pattern."""
        rows = np.asarray(rows, dtype=np.int64)
        if self.period:
            keys = (rows % self.period).tolist()
        else:
            keys = list(zip(*[(rows % count).tolist()
                              for count in self._counts]))
        digests = self._digests
        for key in keys:
            if key not in digests:
                residues = [key % count for count in self._counts] \
                    if self.period else key
                digest = hashlib.sha1()
                for table, residue in enumerate(residues):
                    digest.update(self._candidate_content(table, residue))
                digests[key] = digest.hexdigest()
        return [digests[key] for key in keys]


class _ExplicitRequests:
    """Request provider over materialised :class:`ServingQuery` objects.

    Used by :meth:`QueryColumns.from_queries`: requests and fingerprints
    delegate to the original objects, so digests they memoise are
    shared across runs over the same queries.
    """

    def __init__(self, queries):
        self.queries = list(queries)

    def row_requests(self, row):
        return self.queries[row].requests

    def fingerprints_for(self, rows):
        return [self.queries[int(row)].fingerprint() for row in rows]


def constant_column(value, size, dtype):
    """A read-only zero-stride column holding ``value`` in all ``size``
    rows: one stored element instead of ``size``."""
    return np.broadcast_to(np.array(value, dtype=dtype), (size,))


def _is_constant(column):
    """True for a zero-stride column (one stored value for every row)."""
    return column.strides[0] == 0


def stored_rows(column):
    """The rows ``column`` actually stores: its first row when it is a
    zero-stride constant, else the whole column.  Any row-wise test over
    them answers for every row."""
    return column[:1] if _is_constant(column) else column


def _column(values, dtype):
    """``values`` as a contiguous column; a zero-stride one of the right
    dtype is kept as the view it is."""
    if isinstance(values, np.ndarray) and values.ndim == 1 \
            and values.dtype == dtype and _is_constant(values):
        return values
    return np.ascontiguousarray(values, dtype=dtype)


def _take(column, indices, size):
    """``column[indices]``, as a zero-stride view for a constant."""
    if _is_constant(column):
        return np.broadcast_to(column[:1], (size,))
    return column[indices]


def _concat(columns):
    """Concatenated non-empty columns; zero-stride when every part is a
    constant with the same value (bit for bit), materialised otherwise."""
    head = columns[0][:1].tobytes()
    if all(_is_constant(column) and column[:1].tobytes() == head
           for column in columns):
        return np.broadcast_to(columns[0][:1],
                               (sum(column.shape[0] for column in columns),))
    return np.concatenate(columns)


class QueryColumns:
    """A query stream as flat per-query arrays plus a request provider.

    ``deadline_us`` uses NaN for "no deadline" (the array analogue of
    ``ServingQuery.deadline_us = None``).  ``rows`` indexes the shared
    ``provider``, which owns request materialisation and fingerprints;
    slices and takes reuse the provider, so digests are memoised once
    per stream however it is chunked.

    Columns are contiguous arrays, except that a column passed in as a
    zero-stride view (:func:`constant_column`) stays one: the per-row
    constants of a :class:`QueryStream` chunk are held that way.  Such a
    column is read-only; :meth:`take`, :meth:`slice` and :meth:`concat`
    keep it zero-stride (``concat`` materialises it only when the parts
    hold different values), and a new value is set by replacing the
    attribute, as :meth:`~repro.serving.slo.SLOPolicy.assign_deadlines_columns`
    does.
    """

    def __init__(self, query_id, arrival_us, deadline_us, lookups,
                 poolings, num_requests, rows, provider):
        self.query_id = _column(query_id, np.int64)
        self.arrival_us = _column(arrival_us, np.float64)
        self.deadline_us = _column(deadline_us, np.float64)
        self.lookups = _column(lookups, np.int64)
        self.poolings = _column(poolings, np.int64)
        self.num_requests = _column(num_requests, np.int64)
        self.rows = _column(rows, np.int64)
        self.provider = provider
        size = self.query_id.shape[0]
        for array in (self.arrival_us, self.deadline_us, self.lookups,
                      self.poolings, self.num_requests, self.rows):
            if array.shape[0] != size:
                raise ValueError("query columns must have equal length")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_queries(cls, queries):
        """Columns over existing :class:`ServingQuery` objects.

        Requests and fingerprints stay delegated to the originals; the
        arrays snapshot ids, arrivals, deadlines and lookup counts at
        conversion time (later edits to the arrays do not write back).
        """
        queries = list(queries)
        size = len(queries)
        deadline = np.full(size, np.nan, dtype=np.float64)
        lookups = np.empty(size, dtype=np.int64)
        poolings = np.empty(size, dtype=np.int64)
        num_requests = np.empty(size, dtype=np.int64)
        query_id = np.empty(size, dtype=np.int64)
        arrival = np.empty(size, dtype=np.float64)
        for index, query in enumerate(queries):
            query_id[index] = query.query_id
            arrival[index] = query.arrival_us
            if query.deadline_us is not None:
                deadline[index] = query.deadline_us
            lookups[index] = query.total_lookups
            poolings[index] = sum(len(request.lengths)
                                  for request in query.requests)
            num_requests[index] = len(query.requests)
        return cls(query_id, arrival, deadline, lookups, poolings,
                   num_requests, np.arange(size, dtype=np.int64),
                   _ExplicitRequests(queries))

    # ------------------------------------------------------------------ #
    def __len__(self):
        return self.query_id.shape[0]

    def _columns(self):
        return (self.query_id, self.arrival_us, self.deadline_us,
                self.lookups, self.poolings, self.num_requests, self.rows)

    def take(self, indices):
        """Row subset by index array (shares the provider)."""
        indices = np.asarray(indices)
        query_id = self.query_id[indices]
        size = query_id.shape[0]
        return QueryColumns(
            query_id, *(_take(column, indices, size)
                        for column in self._columns()[1:]),
            self.provider)

    def slice(self, start, stop):
        """Contiguous row range as zero-copy array views."""
        return QueryColumns(
            *(column[start:stop] for column in self._columns()),
            self.provider)

    def sorted_by_arrival(self):
        """Rows in ``(arrival_us, query_id)`` order (the serving order)."""
        order = np.lexsort((self.query_id, self.arrival_us))
        if np.array_equal(order, np.arange(len(self))):
            return self
        return self.take(order)

    @classmethod
    def concat(cls, parts):
        """Concatenate column chunks sharing one provider."""
        parts = [part for part in parts if len(part)]
        if not parts:
            raise ValueError("need at least one non-empty chunk")
        provider = parts[0].provider
        if any(part.provider is not provider for part in parts):
            raise ValueError("cannot concatenate columns with different "
                             "request providers")
        return cls(*(_concat(columns) for columns in
                     zip(*(part._columns() for part in parts))),
                   provider)


def query_columns_from_traces(traces, num_queries, arrivals, batch_size=4,
                              pooling_factor=20, start_id=0):
    """Serving queries from per-table embedding traces, as columns.

    The one query recipe: query ``i`` carries candidate ``i % len`` of
    every table's requests (see
    :func:`repro.serving.arrival.queries_from_traces`, which builds its
    ``ServingQuery`` objects from these columns).  Per-query
    lookup/pooling counts come from the per-table request shapes, and
    candidate requests are cut on first use.
    """
    if num_queries <= 0:
        raise ValueError("num_queries must be positive")
    if hasattr(arrivals, "arrival_times_us"):
        arrival_times = arrivals.arrival_times_us(num_queries)
    else:
        arrival_times = np.asarray(arrivals, dtype=np.float64)
        if arrival_times.size != num_queries:
            raise ValueError("need one arrival time per query")
    provider = _CycledRequests(traces, batch_size, pooling_factor)
    rows = np.arange(num_queries, dtype=np.int64)
    return _columns_for_rows(provider, rows, arrival_times,
                             start_id + rows)


def _columns_for_rows(provider, rows, arrival_times, query_ids):
    """Build :class:`QueryColumns` for cycled rows of ``provider``: the
    deadline and per-query count columns are zero-stride constants."""
    size = rows.shape[0]
    return QueryColumns(
        query_ids, arrival_times,
        constant_column(np.nan, size, np.float64),
        constant_column(provider.lookups, size, np.int64),
        constant_column(provider.poolings, size, np.int64),
        constant_column(len(provider.traces), size, np.int64),
        rows, provider)


class QueryStream:
    """Resumable chunk generator: traces + arrival process -> columns.

    ``take(n)`` yields the next ``n`` queries as a :class:`QueryColumns`
    chunk; successive takes continue the same arrival stream and row
    cycle, so ``take(a); take(b)`` concatenated equals one
    ``take(a + b)`` (and equals :func:`query_columns_from_traces` over
    the same total).  ``num_queries`` bounds the stream (``None`` for
    unbounded).  Per-query counts come from the per-table shapes and
    requests are cut on first use, so the chunked path of
    :meth:`ShardedServingCluster.simulate` drains one of these with
    O(chunk) memory.  A chunk's ``lookups``, ``poolings`` and
    ``num_requests`` (one value per stream) and its all-NaN
    ``deadline_us`` are read-only zero-stride views; only ids, arrivals
    and rows are stored per query.
    """

    def __init__(self, traces, arrivals, num_queries=None, batch_size=4,
                 pooling_factor=20, start_id=0):
        if num_queries is not None and num_queries <= 0:
            raise ValueError("num_queries must be positive (or None)")
        self.provider = _CycledRequests(traces, batch_size, pooling_factor)
        if hasattr(arrivals, "stream"):
            self._arrivals = arrivals.stream()
        elif hasattr(arrivals, "take"):
            self._arrivals = arrivals
        else:
            raise ValueError("arrivals must be an arrival process with "
                             ".stream() or an arrival stream with "
                             ".take(n)")
        self.num_queries = num_queries
        self.start_id = int(start_id)
        self._position = 0

    @property
    def remaining(self):
        """Queries left in the stream (None when unbounded)."""
        if self.num_queries is None:
            return None
        return self.num_queries - self._position

    def take(self, count):
        """The next ``count`` queries as columns (fewer at stream end).

        Returns an empty-length columns object once the stream is
        exhausted.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if self.num_queries is not None:
            count = min(count, self.num_queries - self._position)
        if count <= 0:
            rows = np.empty(0, dtype=np.int64)
            return _columns_for_rows(self.provider, rows,
                                     np.empty(0, dtype=np.float64), rows)
        arrival_times = self._arrivals.take(count)
        rows = np.arange(self._position, self._position + count,
                         dtype=np.int64)
        self._position += count
        return _columns_for_rows(self.provider, rows, arrival_times,
                                 self.start_id + rows)


# --------------------------------------------------------------------- #
# Batches over columns                                                  #
# --------------------------------------------------------------------- #
class ColumnBatch:
    """One dispatched batch as a row range of a :class:`QueryColumns`.

    Answers what the exact service path and the service cache ask of a
    batch (``size``, ``requests()``, ``query_fingerprints()``) from
    array slices and the provider's digest memo, without per-query
    objects.  Per-batch sums and deadline minima come from
    :class:`BatchColumns`.
    """

    __slots__ = ("columns", "start", "stop", "open_us", "formed_us",
                 "trigger")

    def __init__(self, columns, start, stop, open_us, formed_us, trigger):
        self.columns = columns
        self.start = start
        self.stop = stop
        self.open_us = open_us
        self.formed_us = formed_us
        self.trigger = trigger

    @property
    def size(self):
        return self.stop - self.start

    def requests(self):
        provider = self.columns.provider
        rows = self.columns.rows
        return [request
                for position in range(self.start, self.stop)
                for request in provider.row_requests(int(rows[position]))]

    def query_fingerprints(self):
        """Per-query digests of the batch (the service-cache key body)."""
        return self.columns.provider.fingerprints_for(
            self.columns.rows[self.start:self.stop])


class BatchColumns:
    """Formed batches of one (chunk of a) query stream, as arrays.

    ``columns`` holds the *batched* queries in dispatch order (batch
    after batch, each batch in arrival order), ``starts`` the per-batch
    offsets into it.  Engines and service models consume the arrays
    directly; iteration and indexing materialise :class:`ColumnBatch`
    views for per-batch consumers (the exact service path).
    """

    def __init__(self, columns, starts, formed_us, open_us, triggers):
        self.columns = columns
        self.starts = np.ascontiguousarray(starts, dtype=np.int64)
        self.formed_us = np.ascontiguousarray(formed_us, dtype=np.float64)
        self.open_us = np.ascontiguousarray(open_us, dtype=np.float64)
        #: 0 = size trigger, 1 = deadline trigger.
        self.triggers = np.ascontiguousarray(triggers, dtype=np.uint8)
        count = self.starts.shape[0]
        if (self.formed_us.shape[0] != count
                or self.open_us.shape[0] != count
                or self.triggers.shape[0] != count):
            raise ValueError("batch columns must have equal length")

    @property
    def sizes(self):
        """Queries per batch (int64)."""
        ends = np.append(self.starts[1:], len(self.columns))
        return ends - self.starts

    @property
    def num_queries(self):
        return len(self.columns)

    def earliest_deadline_us(self):
        """Per-batch deadline minima (NaN = no deadline in the batch)."""
        return np.fmin.reduceat(self.columns.deadline_us, self.starts)

    def totals(self):
        """Per-batch ``(num_requests, total_poolings, total_lookups)``
        sums (int64 arrays) over the batches' queries.  A zero-stride
        constant column sums as ``sizes * value``: the same integers
        without a pass over the rows."""
        columns = self.columns
        return tuple(self.sizes * column[0]
                     if len(column) and _is_constant(column)
                     else np.add.reduceat(column, self.starts)
                     for column in (columns.num_requests, columns.poolings,
                                    columns.lookups))

    def trigger_counts(self):
        """``{"size": n, "deadline": m}`` over the batch arrays."""
        deadline = int(np.count_nonzero(self.triggers))
        return {"size": len(self) - deadline, "deadline": deadline}

    def __len__(self):
        return self.starts.shape[0]

    def __getitem__(self, index):
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("batch index out of range")
        start = int(self.starts[index])
        stop = int(self.starts[index + 1]) if index + 1 < count \
            else len(self.columns)
        trigger = "deadline" if self.triggers[index] else "size"
        return ColumnBatch(self.columns, start, stop,
                           float(self.open_us[index]),
                           float(self.formed_us[index]), trigger)

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    @classmethod
    def concat(cls, parts):
        """Concatenate per-chunk batch columns into one run."""
        parts = [part for part in parts if len(part)]
        if not parts:
            raise ValueError("need at least one non-empty chunk")
        columns = QueryColumns.concat([part.columns for part in parts])
        starts, offset = [], 0
        for part in parts:
            starts.append(part.starts + offset)
            offset += len(part.columns)
        return cls(columns, np.concatenate(starts),
                   np.concatenate([part.formed_us for part in parts]),
                   np.concatenate([part.open_us for part in parts]),
                   np.concatenate([part.triggers for part in parts]))


def _position_walk(steps):
    """Batch starts by one list step per batch over per-position steps."""
    steps = steps.tolist()
    size = len(steps)
    starts = []
    append = starts.append
    position = 0
    while position < size:
        append(position)
        position += steps[position]
    return np.asarray(starts, dtype=np.int64)


def _run_walk(size, max_queries, partial, lengths):
    """Batch starts by one walk step per partial batch.

    The walk for chunks where nearly every position opens a full batch
    (high load).  A batch that starts at a full position ``s`` is
    followed by one at ``s + max_queries``, so from each landing point
    (position 0 and the end of every partial batch) the batches run as
    one arithmetic progression up to the next partial position on that
    progression.  That position is found for every landing point at
    once by a search over the partial positions sorted by ``(position %
    max_queries, position)``; the walk then only hops from partial
    batch to partial batch, and each visited landing expands to its
    progression in one array pass.
    """
    count = partial.shape[0]
    landings = np.empty(count + 1, dtype=np.int64)
    landings[0] = 0
    np.add(partial, lengths, out=landings[1:])
    stride = size + 1
    residues = partial % max_queries
    order = np.argsort(residues, kind="stable")
    # The sentinel key is past every residue class: a landing without a
    # partial position on its progression finds it, or another class.
    keys = np.append((residues * stride + partial)[order],
                     max_queries * stride)
    order = np.append(order, count)
    landing_keys = landings % max_queries * stride + landings
    found = np.searchsorted(keys, landing_keys)
    same_class = keys[found] - landing_keys < stride - landings
    targets = np.where(same_class, order[found], count)
    after = (targets + 1).tolist()
    visited = []
    append = visited.append
    landing = 0
    while landing <= count:
        append(landing)
        landing = after[landing]
    visited = np.asarray(visited, dtype=np.int64)
    # Each visited landing's progression ends at its partial position,
    # or at the last position when it has none (no batch when the
    # landing is already past the end).
    bases = landings[visited]
    ends = np.append(partial, size - 1)[targets[visited]]
    counts = (ends - bases) // max_queries + 1
    offsets = np.cumsum(counts) - counts
    return np.repeat(bases - offsets * max_queries, counts) \
        + np.arange(int(counts.sum())) * max_queries


def form_batch_columns(columns, max_queries, max_delay_us, final=True):
    """Two-trigger batch formation over sorted query columns.

    Reproduces the per-query two-trigger loop (the batching
    specification kept in ``tests/queue_oracles.py``) exactly -- same
    batch boundaries, formation times and trigger labels -- from whole-
    chunk array passes.  Arrivals are sorted, so the batch a position
    ``i`` would open is full exactly when ``arrivals[i + max_queries -
    1] < arrivals[i] + max_delay_us``: one shifted comparison classes
    every position.  Only partial batches need their length from the
    deadline window.  When one position in ten or more is partial (low
    load, or a chunk whose ``max_queries - 1`` tail positions alone are
    a tenth of it), or the chunk holds at most 1,024 queries
    (``_LIST_WALK_MAX_QUERIES``), one ``searchsorted`` sizes every
    position and :func:`_position_walk` takes one list step per batch.
    Otherwise only the partial positions are searched, and
    :func:`_run_walk` emits each run of full batches between them as one
    arithmetic progression.  Its fixed array passes lose to the list
    walk above 11-37% partial positions (measured on chunks of 2,048 and
    65,536 queries, ``max_queries`` 2-32), so the tenth stays below
    every measured crossover.  ``columns`` must already be in
    ``(arrival_us, query_id)`` order.

    Returns ``(batch_columns, carry)``: with ``final=False`` a trailing
    open batch whose deadline has not passed within ``columns`` (and
    that could still grow) is returned as a ``carry`` columns remnant
    instead of being flushed; prepend it (``QueryColumns.concat``) to
    the next chunk to continue byte-identically.  ``final=True`` always
    returns ``carry=None``.
    """
    arrivals = columns.arrival_us
    size = arrivals.shape[0]
    cutoffs = arrivals + max_delay_us
    # A one-query batch is full with its opening query, deadline or not.
    full = np.full(size, max_queries == 1)
    if 1 < max_queries <= size:
        head = size - max_queries + 1
        np.less(arrivals[max_queries - 1:], cutoffs[:head], out=full[:head])
    num_partial = size - int(np.count_nonzero(full))
    if size <= _LIST_WALK_MAX_QUERIES or 10 * num_partial >= size:
        # A short chunk, or partial batches are common (low load, or a
        # chunk short enough that its tail is a tenth of it): one
        # ``searchsorted`` sizes every position's window and the walk
        # steps batch by batch.  The opening query always belongs to its
        # own batch even when max_delay_us is 0, and a full batch steps
        # ``max_queries``.
        steps = np.searchsorted(arrivals, cutoffs, side="left")
        steps -= np.arange(size)
        starts = _position_walk(np.clip(steps, 1, max_queries, out=steps))
    else:
        # Nearly every batch is full: search only the partial positions
        # (a batch holds at least its opening query) and emit the runs
        # of full batches between them whole.
        partial = np.flatnonzero(~full)
        limits = np.searchsorted(arrivals, cutoffs[partial], side="left")
        starts = _run_walk(size, max_queries, partial,
                           np.maximum(limits - partial, 1))
    is_full = full[starts]
    stop = size
    carry = None
    if not final and len(starts) and not is_full[-1] \
            and arrivals[-1] < cutoffs[starts[-1]]:
        # Every remaining arrival is inside the open batch's window and
        # the batch is not full: its fate depends on queries beyond
        # this chunk, so it carries over.
        stop = int(starts[-1])
        carry = columns.slice(stop, size)
        starts = starts[:-1]
        is_full = is_full[:-1]
    formed = cutoffs[starts]
    formed[is_full] = arrivals[starts[is_full] + max_queries - 1]
    return BatchColumns(columns.slice(0, stop), starts, formed,
                        arrivals[starts], ~is_full), carry
