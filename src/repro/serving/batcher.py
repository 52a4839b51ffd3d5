"""Batching frontend: group arriving queries into execution batches.

Production embedding servers batch queries to amortise dispatch overheads
and fill the memory system, but cap the wait so tail latency stays bounded.
The frontend here implements the standard two-trigger policy:

* **size** -- the open batch reaches ``max_queries`` and dispatches
  immediately, and
* **deadline** -- ``max_delay_us`` elapses after the batch opened and the
  batch dispatches with whatever it holds.

Batch formation is a pure function of the query arrival times, so it is
deterministic and separately testable from the execution layers.
"""

from dataclasses import dataclass, field


@dataclass
class QueryBatch:
    """A dispatched batch of serving queries.

    The lookup/pooling aggregates are computed once on first access and
    cached (one walk over the request lists instead of one per
    property read -- the interpolating service model reads several per
    batch).  The cache keys on the query list's length, so the batcher
    appending queries during formation invalidates nothing; replacing
    or mutating queries *in place* after an aggregate was read is not
    supported.
    """

    queries: list = field(default_factory=list)
    open_us: float = 0.0
    formed_us: float = 0.0
    trigger: str = "size"
    _aggregates: tuple = field(default=None, init=False, repr=False,
                               compare=False)

    def _aggregate(self, index):
        cached = self._aggregates
        if cached is None or cached[0] != len(self.queries):
            lookups = 0
            poolings = 0
            num_requests = 0
            for query in self.queries:
                lookups += query.total_lookups
                num_requests += len(query.requests)
                for request in query.requests:
                    poolings += len(request.lengths)
            cached = (len(self.queries), lookups, poolings, num_requests)
            self._aggregates = cached
        return cached[index]

    @property
    def size(self):
        return len(self.queries)

    @property
    def total_lookups(self):
        return self._aggregate(1)

    @property
    def total_poolings(self):
        """Pooling operations across the batch (the SLS batch dimension).

        The axis service time scales along: a batch of ``n`` queries each
        carrying ``b`` poolings per table behaves like one ``n * b``-pooling
        request per table, which is how the interpolating service-time
        model (:mod:`repro.perf.service_model`) keys its calibration grid.
        """
        return self._aggregate(2)

    @property
    def num_pooling_ops(self):
        """Alias of :attr:`total_poolings` (the SLS batch dimension)."""
        return self._aggregate(2)

    @property
    def num_requests(self):
        """SLS requests across the batch (queries x tables touched)."""
        return self._aggregate(3)

    @property
    def mean_pooling_factor(self):
        """Average lookups per pooling operation across the batch."""
        poolings = self.total_poolings
        return self.total_lookups / poolings if poolings else 0.0

    def query_fingerprints(self):
        """Per-query content digests (the service-cache key body)."""
        return [query.fingerprint() for query in self.queries]

    @property
    def earliest_deadline_us(self):
        """Tightest absolute deadline across the batch's queries.

        The priority key for earliest-deadline-first dispatch
        (:class:`~repro.serving.events.EventEngine` with
        ``order="edf"``); ``None`` when no query carries a deadline, so
        deadline-free batches sort after every constrained one.
        """
        deadlines = [query.deadline_us for query in self.queries
                     if query.deadline_us is not None]
        return min(deadlines) if deadlines else None

    def requests(self):
        """All SLS requests of the batch, in query order."""
        return [request for query in self.queries
                for request in query.requests]

    def batching_delay_us(self, query):
        """How long ``query`` waited in the frontend before dispatch."""
        return self.formed_us - query.arrival_us


class BatchingFrontend:
    """Size- and deadline-triggered query batcher.

    Parameters
    ----------
    max_queries:
        Dispatch as soon as the open batch holds this many queries.
    max_delay_us:
        Dispatch at the latest this long after the batch's first query
        arrived (the deadline trigger).
    """

    def __init__(self, max_queries=8, max_delay_us=500.0):
        if max_queries <= 0:
            raise ValueError("max_queries must be positive")
        if max_delay_us < 0:
            raise ValueError("max_delay_us must be non-negative")
        self.max_queries = int(max_queries)
        self.max_delay_us = float(max_delay_us)

    def form_batches(self, queries):
        """Group a query stream into dispatched :class:`QueryBatch` objects.

        Queries are processed in arrival order (ties broken by query id).
        The final partial batch dispatches at its deadline.
        """
        ordered = sorted(queries, key=lambda q: (q.arrival_us, q.query_id))
        batches = []
        open_batch = None
        for query in ordered:
            # >=: a batch expires *at* open + max_delay, so a query
            # arriving exactly then must open the next batch -- it cannot
            # join a batch that dispatched the instant it arrived.
            if open_batch is not None and \
                    query.arrival_us >= open_batch.open_us \
                    + self.max_delay_us:
                open_batch.formed_us = open_batch.open_us + self.max_delay_us
                open_batch.trigger = "deadline"
                batches.append(open_batch)
                open_batch = None
            if open_batch is None:
                open_batch = QueryBatch(open_us=query.arrival_us)
            open_batch.queries.append(query)
            if len(open_batch.queries) >= self.max_queries:
                open_batch.formed_us = query.arrival_us
                open_batch.trigger = "size"
                batches.append(open_batch)
                open_batch = None
        if open_batch is not None:
            open_batch.formed_us = open_batch.open_us + self.max_delay_us
            open_batch.trigger = "deadline"
            batches.append(open_batch)
        return batches

    def form_batch_columns(self, columns, final=True):
        """Array-path batch formation over sorted query columns.

        Delegates to :func:`repro.serving.query_columns
        .form_batch_columns` with this frontend's triggers; see there
        for the carry contract of ``final=False``.
        """
        from repro.serving.query_columns import form_batch_columns

        return form_batch_columns(columns, self.max_queries,
                                  self.max_delay_us, final=final)

    def trigger_counts(self, batches):
        """``{"size": n, "deadline": m}`` over the dispatched batches
        (:class:`~repro.serving.query_columns.BatchColumns` or a
        :class:`QueryBatch` list)."""
        from repro.serving.query_columns import as_batch_columns

        return as_batch_columns(batches).trigger_counts()
