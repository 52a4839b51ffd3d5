"""Reference loops for the serving batcher and event kernels.

These are the readable specifications of
:func:`repro.serving.query_columns.form_batch_columns` -- the per-query
two-trigger loop :func:`form_batches` over :class:`QueryBatch` objects
-- of :func:`repro.serving.event_kernels.fifo_queue_times` and
:func:`~repro.serving.event_kernels.edf_queue_times` -- a min-heap of
server next-free times and, for EDF, a heap of waiting batches keyed by
``(priority, ready, index)`` -- and of
:func:`~repro.serving.event_kernels.admission_mask`: the fluid backlog
model (:func:`fluid_admission`) with each built-in controller's rule
decided one query at a time.  They share no code with what they
specify.  The kernel oracles take the same arguments and return the
same arrays, so tests can compare them directly or substitute them for
the kernels (``monkeypatch.setattr(event_kernels, "fifo_queue_times",
...)``) and rerun whole serving pipelines.  :func:`batch_columns` turns
hand-built :class:`QueryBatch` lists into the
:class:`~repro.serving.query_columns.BatchColumns` that engines and
service models take.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.serving import event_kernels
from repro.serving.query_columns import BatchColumns, QueryColumns


@dataclass
class QueryBatch:
    """One dispatched batch of :class:`~repro.serving.arrival
    .ServingQuery` objects."""

    queries: list = field(default_factory=list)
    open_us: float = 0.0
    formed_us: float = 0.0
    trigger: str = "size"


def form_batches(queries, max_queries, max_delay_us):
    """Size- and deadline-triggered batching, one query at a time.

    Queries are processed in arrival order (ties broken by query id):
    a batch dispatches when it holds ``max_queries`` queries, or
    ``max_delay_us`` after its first query arrived.  The final partial
    batch dispatches at its deadline.
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
                + max_delay_us:
            open_batch.formed_us = open_batch.open_us + max_delay_us
            open_batch.trigger = "deadline"
            batches.append(open_batch)
            open_batch = None
        if open_batch is None:
            open_batch = QueryBatch(open_us=query.arrival_us)
        open_batch.queries.append(query)
        if len(open_batch.queries) >= max_queries:
            open_batch.formed_us = query.arrival_us
            open_batch.trigger = "size"
            batches.append(open_batch)
            open_batch = None
    if open_batch is not None:
        open_batch.formed_us = open_batch.open_us + max_delay_us
        open_batch.trigger = "deadline"
        batches.append(open_batch)
    return batches


def batch_columns(batches):
    """:class:`BatchColumns` over a :class:`QueryBatch` list, queries in
    batch order."""
    sizes = np.array([len(batch.queries) for batch in batches],
                     dtype=np.int64)
    return BatchColumns(
        QueryColumns.from_queries(
            [query for batch in batches for query in batch.queries]),
        np.cumsum(sizes) - sizes, [batch.formed_us for batch in batches],
        [batch.open_us for batch in batches],
        [batch.trigger == "deadline" for batch in batches])


def fifo_queue_times(ready, services, arrival_order, num_servers):
    """Multi-server FIFO: each batch, in arrival order, takes the
    earliest-free server."""
    starts = np.empty_like(ready)
    completes = np.empty_like(ready)
    free_at = [float(ready[arrival_order[0]])] * num_servers
    heapq.heapify(free_at)
    for index in arrival_order:
        start = max(float(ready[index]), heapq.heappop(free_at))
        complete = start + float(services[index])
        starts[index] = start
        completes[index] = complete
        heapq.heappush(free_at, complete)
    return starts, completes


def edf_queue_times(ready, services, priority, arrival_order, num_servers):
    """Non-preemptive EDF: a freed server takes the waiting batch with
    the smallest priority (ties: earlier ready time, then lower index)."""
    starts = np.empty_like(ready)
    completes = np.empty_like(ready)
    free_at = [float(ready[arrival_order[0]])] * num_servers
    heapq.heapify(free_at)
    pending = []                   # (priority, ready, index)
    next_arrival = 0
    for _ in range(ready.size):
        now = heapq.heappop(free_at)
        if not pending:
            # The earliest-free server idles until the next
            # arrival.
            now = max(now, float(ready[arrival_order[
                next_arrival]]))
        while next_arrival < ready.size and \
                float(ready[arrival_order[next_arrival]]) <= now:
            index = int(arrival_order[next_arrival])
            heapq.heappush(pending, (float(priority[index]),
                                     float(ready[index]), index))
            next_arrival += 1
        _, batch_ready, index = heapq.heappop(pending)
        start = max(batch_ready, now)
        complete = start + float(services[index])
        starts[index] = start
        completes[index] = complete
        heapq.heappush(free_at, complete)
    return starts, completes


def fluid_admission(arrivals, state, num_servers, est_query_us, decide):
    """The fluid backlog model, one ``decide`` call per query.

    Queries arrive at ``arrivals`` (sorted); admitted ones add
    ``est_query_us`` of work, which ``num_servers`` frontends drain in
    parallel.  ``decide(position, now_us, wait_us)`` sees the predicted
    wait at the arrival and returns True to admit.  The backlog and
    last-arrival slots of ``state`` (the kernel's carried vector) are
    updated in place, so consecutive chunks continue one model.
    """
    backlog_us = float(state[event_kernels.ADM_BACKLOG_US])
    last_us = float(state[event_kernels.ADM_LAST_US])
    admitted = np.zeros(len(arrivals), dtype=bool)
    for position, now_us in enumerate(arrivals):
        now_us = float(now_us)
        backlog_us = max(0.0, backlog_us - (now_us - last_us) * num_servers)
        last_us = now_us
        if decide(position, now_us, backlog_us / num_servers):
            admitted[position] = True
            backlog_us += est_query_us
    state[event_kernels.ADM_BACKLOG_US] = backlog_us
    state[event_kernels.ADM_LAST_US] = last_us
    return admitted


def admission_mask(arrivals, slacks, state, num_servers, est_query_us,
                   est_batch_us, mode, param0=0.0, param1=0.0):
    """The built-in admission rules, one query at a time.

    ``mode`` and the parameters mean what they mean to the kernel: the
    token bucket refills ``param0`` tokens per second up to ``param1``
    (its level and last-refill time live in ``state``, NaN before the
    first arrival); queue-depth sheds at ``param0`` queued queries;
    deadline sheds a query whose predicted wait plus ``param0`` batch
    services exceeds its slack (NaN: no deadline, always admitted).
    """
    def token_bucket(position, now_us, wait_us):
        tokens = float(state[event_kernels.ADM_TOKENS])
        last_us = float(state[event_kernels.ADM_TOKEN_LAST_US])
        if not math.isnan(last_us) and now_us > last_us:
            tokens = min(param1, tokens + (now_us - last_us) * param0 / 1e6)
        state[event_kernels.ADM_TOKEN_LAST_US] = now_us
        admit = tokens >= 1.0
        state[event_kernels.ADM_TOKENS] = tokens - 1.0 if admit else tokens
        return admit

    def queue_depth(position, now_us, wait_us):
        return wait_us * num_servers / est_query_us < param0

    def deadline(position, now_us, wait_us):
        slack_us = float(slacks[position])
        return math.isnan(slack_us) \
            or wait_us + param0 * est_batch_us <= slack_us

    rules = {
        event_kernels.ADMISSION_MODE_NONE: lambda *_: True,
        event_kernels.ADMISSION_MODE_TOKEN_BUCKET: token_bucket,
        event_kernels.ADMISSION_MODE_QUEUE_DEPTH: queue_depth,
        event_kernels.ADMISSION_MODE_DEADLINE: deadline,
    }
    return fluid_admission(arrivals, state, num_servers, est_query_us,
                           rules[mode])
