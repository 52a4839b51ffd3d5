"""Raw per-run arrays the serving engines deposit for reconstruction.

The observability layer never reaches *into* a queue simulation -- the
flat event kernels are jitted loops with no callback surface, and the
bit-identity contract forbids perturbing them.  Instead an engine that
was handed a :class:`RunCapture` fills it *after* the queue maths from
arrays it already computed (ready/start/complete/service per batch,
arrival/latency per query), and the :class:`~repro.obs.tracing.Tracer`
reconstructs lifecycle spans and time series from those arrays post
hoc.  When no capture is requested the engines skip one ``if`` -- the
zero-overhead-when-disabled half of the contract.
"""

import numpy as np

#: Batch trigger codes, matching ``BatchColumns.triggers``.
TRIGGER_NAMES = ("size", "deadline")


class RunCapture:
    """Per-run arrays of one ``summarize`` call.

    Batch-indexed arrays (``batch_*``) line up with the dispatched batch
    list; query-indexed arrays (``query_*``) flatten the batches in
    dispatch order -- batch after batch, each batch in arrival order --
    which is exactly the engines' internal flattening, so
    ``np.repeat(batch_array, batch_sizes)`` maps between the two.

    ``approximate`` marks analytic-engine captures: the closed-form
    model has no per-batch queue timeline, so start times are the
    formation times plus the mean wait and the reconstruction is a
    model-consistent approximation rather than a measured schedule.
    """

    __slots__ = ("engine", "num_servers", "approximate",
                 "batch_ready_us", "batch_start_us", "batch_complete_us",
                 "batch_service_us", "batch_open_us", "batch_sizes",
                 "batch_triggers",
                 "query_id", "query_arrival_us", "query_deadline_us",
                 "query_latency_us",
                 "max_queue_depth", "measured_utilization")

    def __init__(self):
        self.engine = None
        self.num_servers = 1
        self.approximate = False
        self.batch_ready_us = None
        self.batch_start_us = None
        self.batch_complete_us = None
        self.batch_service_us = None
        self.batch_open_us = None
        self.batch_sizes = None
        self.batch_triggers = None
        self.query_id = None
        self.query_arrival_us = None
        self.query_deadline_us = None
        self.query_latency_us = None
        self.max_queue_depth = None
        self.measured_utilization = None

    @property
    def filled(self):
        return self.engine is not None

    @property
    def num_batches(self):
        return 0 if self.batch_ready_us is None \
            else self.batch_ready_us.shape[0]

    @property
    def num_queries(self):
        return 0 if self.query_arrival_us is None \
            else self.query_arrival_us.shape[0]

    # ------------------------------------------------------------------ #
    def record(self, engine, batches, ready_us, service_us, start_us,
               complete_us, latency_us, num_servers=1,
               max_queue_depth=None, measured_utilization=None,
               approximate=False):
        """Fill the capture from one engine run.

        ``batches`` is the dispatched
        :class:`~repro.serving.query_columns.BatchColumns`; the
        per-query identity columns are extracted here so the engines
        stay one call-site line each.
        """
        if self.filled:
            raise ValueError("RunCapture already holds a run; use a "
                             "fresh capture per simulate call")
        self.engine = str(engine)
        self.num_servers = int(num_servers)
        self.approximate = bool(approximate)
        self.batch_ready_us = np.asarray(ready_us, dtype=np.float64)
        self.batch_service_us = np.asarray(service_us, dtype=np.float64)
        self.batch_start_us = np.asarray(start_us, dtype=np.float64)
        self.batch_complete_us = np.asarray(complete_us, dtype=np.float64)
        self.query_latency_us = np.asarray(latency_us, dtype=np.float64)
        columns = batches.columns
        self.batch_open_us = np.asarray(batches.open_us, dtype=np.float64)
        self.batch_sizes = np.asarray(batches.sizes, dtype=np.int64)
        self.batch_triggers = [TRIGGER_NAMES[code]
                               for code in batches.triggers]
        self.query_id = np.asarray(columns.query_id, dtype=np.int64)
        self.query_arrival_us = np.asarray(columns.arrival_us,
                                           dtype=np.float64)
        self.query_deadline_us = np.asarray(columns.deadline_us,
                                            dtype=np.float64)
        if max_queue_depth is not None:
            self.max_queue_depth = int(max_queue_depth)
        if measured_utilization is not None:
            self.measured_utilization = float(measured_utilization)
        self._validate()

    def _validate(self):
        batches = self.num_batches
        for name in ("batch_start_us", "batch_complete_us",
                     "batch_service_us", "batch_open_us", "batch_sizes"):
            if getattr(self, name).shape[0] != batches:
                raise ValueError("capture %s is not batch-indexed" % name)
        if len(self.batch_triggers) != batches:
            raise ValueError("capture batch_triggers is not batch-indexed")
        queries = int(self.batch_sizes.sum())
        for name in ("query_id", "query_arrival_us", "query_deadline_us",
                     "query_latency_us"):
            if getattr(self, name).shape[0] != queries:
                raise ValueError("capture %s is not query-indexed" % name)

    # ------------------------------------------------------------------ #
    def query_batch_index(self):
        """Batch index of each query (query-indexed int64)."""
        return np.repeat(np.arange(self.num_batches, dtype=np.int64),
                         self.batch_sizes)

    def per_query(self, batch_array):
        """Broadcast a batch-indexed array onto the query axis."""
        return np.repeat(np.asarray(batch_array), self.batch_sizes)
