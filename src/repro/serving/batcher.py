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

from repro.serving.query_columns import QueryColumns, form_batch_columns


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
        """Batch a :class:`~repro.serving.arrival.ServingQuery` list.

        The queries are converted once (:meth:`QueryColumns.from_queries`),
        put in arrival order (ties broken by query id) and batched by
        :meth:`form_batch_columns`; the final partial batch dispatches
        at its deadline.  Returns the
        :class:`~repro.serving.query_columns.BatchColumns`.
        """
        columns = QueryColumns.from_queries(queries).sorted_by_arrival()
        return self.form_batch_columns(columns)[0]

    def form_batch_columns(self, columns, final=True):
        """Array-path batch formation over sorted query columns.

        Delegates to :func:`repro.serving.query_columns
        .form_batch_columns` with this frontend's triggers; see there
        for the carry contract of ``final=False``.
        """
        return form_batch_columns(columns, self.max_queries,
                                  self.max_delay_us, final=final)

    def trigger_counts(self, batches):
        """``{"size": n, "deadline": m}`` over the dispatched
        :class:`~repro.serving.query_columns.BatchColumns`."""
        return batches.trigger_counts()
