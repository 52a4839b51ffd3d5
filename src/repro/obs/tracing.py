"""Sim-time tracer: lifecycle spans and time series from captured runs.

One :class:`Tracer` holds one serving run, reconstructed post hoc from
the :class:`~repro.obs.capture.RunCapture` the engine filled: per-query
lifecycle spans (arrival -> batch formation -> dispatch-queue start ->
completion), the dispatch-queue depth as a sim-time step series, and --
when the cluster replayed routing -- per-node batch activity and
utilisation.  Nothing here runs inside a simulation loop; a tracer is a
pure function of kernel *output* arrays, so tracing cannot perturb
bit-identity.

Span arithmetic note: the three stage durations sum to the reported
latency up to float association only --
``(formed - arrival) + (start - formed) + (complete - start)`` need not
be bitwise ``complete - arrival`` -- so reconciliation checks compare
with a tolerance, never ``==``.

All times are simulated microseconds, which is also the Chrome
trace-event unit; see :mod:`repro.obs.exporters` for the Perfetto
export.
"""

import numpy as np

#: Lifecycle stages of one query, in timeline order.
QUERY_STAGES = ("batching", "queue", "service")


class Tracer:
    """Collects one run's reconstructed timeline.

    Pass a fresh instance to ``ShardedServingCluster.simulate(...,
    trace=tracer)``; afterwards the tracer answers span and series
    queries and feeds the exporters.  A tracer is single-use -- one run,
    one timeline -- so sweeps trace one point per tracer.
    """

    def __init__(self, label=None):
        self.label = label
        self.capture = None
        self.run_info = {}
        self.shed_query_id = np.empty(0, dtype=np.int64)
        self.shed_arrival_us = np.empty(0, dtype=np.float64)
        #: Per-batch tuples of node ids the batch's shards landed on
        #: (``None`` until the cluster replays routing).
        self.batch_nodes = None
        self.num_nodes = None

    # ------------------------------------------------------------------ #
    # Filled by the cluster                                              #
    # ------------------------------------------------------------------ #
    def record_run(self, capture, run_info=None):
        if self.capture is not None:
            raise ValueError("Tracer already holds a run; use a fresh "
                             "Tracer per simulate call")
        if not capture.filled:
            raise ValueError("capture was never filled by an engine")
        self.capture = capture
        self.run_info = dict(run_info or {})

    def record_shed(self, query_id, arrival_us):
        """Record queries the admission controller turned away."""
        self.shed_query_id = np.asarray(query_id, dtype=np.int64)
        self.shed_arrival_us = np.asarray(arrival_us, dtype=np.float64)
        if self.shed_query_id.shape != self.shed_arrival_us.shape:
            raise ValueError("shed ids and arrivals must align")

    def record_assignments(self, batch_nodes, num_nodes):
        """Record the replayed per-batch node fan-out."""
        batch_nodes = [tuple(sorted(set(int(node) for node in nodes)))
                       for nodes in batch_nodes]
        if self.capture is not None \
                and len(batch_nodes) != self.capture.num_batches:
            raise ValueError("need one node set per batch")
        self.batch_nodes = batch_nodes
        self.num_nodes = int(num_nodes)

    # ------------------------------------------------------------------ #
    # Reconstructed views                                                #
    # ------------------------------------------------------------------ #
    def _require_run(self):
        if self.capture is None:
            raise ValueError("Tracer holds no run yet; pass it to "
                             "simulate(trace=...) first")
        return self.capture

    def query_spans(self):
        """Per-query lifecycle timestamps as aligned arrays.

        Returns a dict of query-indexed arrays: ``query_id``,
        ``arrival_us``, ``formed_us`` (batch formation = batching ends),
        ``start_us`` (dispatch-queue service begins), ``complete_us``,
        ``latency_us`` (the engine's reported per-query latency),
        ``deadline_us`` (NaN = none) and ``batch_index``.
        """
        capture = self._require_run()
        return {
            "query_id": capture.query_id,
            "arrival_us": capture.query_arrival_us,
            "formed_us": capture.per_query(capture.batch_ready_us),
            "start_us": capture.per_query(capture.batch_start_us),
            "complete_us": capture.per_query(capture.batch_complete_us),
            "latency_us": capture.query_latency_us,
            "deadline_us": capture.query_deadline_us,
            "batch_index": capture.query_batch_index(),
        }

    def queue_depth_series(self):
        """Dispatch-queue depth as a step series ``(times_us, depth)``.

        A batch occupies the waiting queue from ready to start.  Events
        at the same instant are collapsed to one sample -- the depth
        after *all* of them -- matching the engines' tie rule that
        departures at ``t`` precede arrivals at ``t`` (a batch that
        starts the moment it forms never counts), so the series stays
        non-negative and its peak equals the reported
        ``max_queue_depth``.
        """
        capture = self._require_run()
        ready = capture.batch_ready_us
        starts = capture.batch_start_us
        times = np.concatenate([starts, ready])
        deltas = np.concatenate([np.full(starts.size, -1, dtype=np.int64),
                                 np.ones(ready.size, dtype=np.int64)])
        if times.size == 0:
            return times, deltas
        order = np.argsort(times, kind="stable")
        times = times[order]
        depth = np.cumsum(deltas[order])
        # Keep only the last event per distinct timestamp: intermediate
        # cumsum values inside a tie group are artefacts of event order,
        # not depths the queue ever exposed.
        keep = np.empty(times.size, dtype=bool)
        keep[:-1] = times[1:] != times[:-1]
        keep[-1] = True
        return times[keep], depth[keep]

    def frontend_assignments(self):
        """Greedy replay of which frontend served each batch.

        The queue kernels track only *when* each batch starts, not on
        which of the ``c`` identical servers; serving batches in start
        order on the earliest-free lane reproduces a consistent
        schedule (exact for FIFO and EDF, where a freed server takes
        the next started batch).  Returns a batch-indexed int64 array.
        """
        import heapq

        capture = self._require_run()
        lanes = [(-np.inf, lane) for lane in range(capture.num_servers)]
        heapq.heapify(lanes)
        assignment = np.empty(capture.num_batches, dtype=np.int64)
        for index in np.argsort(capture.batch_start_us, kind="stable"):
            _, lane = heapq.heappop(lanes)
            assignment[index] = lane
            heapq.heappush(lanes,
                           (float(capture.batch_complete_us[index]), lane))
        return assignment

    def node_busy_us(self):
        """Per-node busy time: sum of service of batches touching it.

        Needs the cluster's routing replay
        (:meth:`record_assignments`).  Every node a batch fans out to is
        charged the *whole* batch service time -- the batch completes
        with its slowest shard, so this is the occupancy upper bound the
        dispatch layer sees, not per-shard device time.
        """
        capture = self._require_run()
        if self.batch_nodes is None:
            raise ValueError("no routing replay recorded; simulate with "
                             "trace= on a cluster to populate it")
        busy = np.zeros(self.num_nodes, dtype=np.float64)
        for index, nodes in enumerate(self.batch_nodes):
            for node in nodes:
                busy[node] += capture.batch_service_us[index]
        return busy

    def node_utilization(self):
        """Per-node busy fraction over the run's active span."""
        capture = self._require_run()
        span = float(capture.batch_complete_us.max()
                     - capture.batch_ready_us.min())
        span = max(span, 1e-9)
        return self.node_busy_us() / span

    # ------------------------------------------------------------------ #
    def write_chrome_trace(self, path, max_query_spans=None):
        """Write the Perfetto-loadable Chrome trace JSON to ``path``."""
        from repro.obs.exporters import write_chrome_trace

        return write_chrome_trace(self, path,
                                  max_query_spans=max_query_spans)
