"""Reference ``heapq`` loops for the multi-server dispatch queues.

These are the readable specifications of
:func:`repro.serving.event_kernels.fifo_queue_times` and
:func:`~repro.serving.event_kernels.edf_queue_times`: a min-heap of
server next-free times and, for EDF, a heap of waiting batches keyed by
``(priority, ready, index)``.  They share no code with the kernels, take
the same arguments and return the same ``(starts, completes)`` arrays, so
tests can compare them directly or substitute them for the kernels
(``monkeypatch.setattr(event_kernels, "fifo_queue_times", ...)``) and
rerun whole serving pipelines.
"""

import heapq

import numpy as np


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
