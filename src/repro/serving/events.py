"""Event-driven dispatch-queue simulation (the non-closed-form engine).

The analytic engine's exponential-tail quantiles are a heavy-traffic
*approximation*; the paper's headline serving claims are tail-latency
claims precisely where that approximation is least validated (high
utilisation, near saturation).  :class:`EventEngine` removes the
approximation: it replays the dispatched batches through a discrete-event
simulation of a single batch queue drained by ``num_frontends``
concurrent servers and reports *measured* per-query p50/p95/p99.

Two service orders are supported.  **FIFO** (the default) is O(B log c)
in the number of batches B: each batch is an arrival event at its
formation time, a min-heap holds the next-free time of every server, and
FIFO order makes the earliest-free server the only candidate.  **EDF**
(earliest deadline first, ``order="edf"``) additionally keeps a priority
heap of ready batches keyed by their tightest query deadline
(:meth:`~repro.serving.query_columns.BatchColumns.earliest_deadline_us`),
so a freed server always takes the most urgent waiting batch --
non-preemptive, O(B log B).  Service times come from whatever
:class:`~repro.perf.service_model.ServiceTimeModel` produced them, so a
million-query event run costs a million heap operations -- not a million
cycle simulations.  The multi-server loops run as the kernels of
:mod:`repro.serving.event_kernels`; their readable ``heapq``
specification lives in the test suite as the reference oracle they are
pinned against.

The engine works on :class:`~repro.serving.query_columns.BatchColumns`,
turning per-batch times into per-query latencies with array passes.
When queries carry deadlines (assigned by an
:class:`~repro.serving.slo.SLOPolicy`) or the run went through
admission control, the engine attaches the measured SLO
accounting -- goodput, attainment, shed rate -- to ``extras["slo"]``
(:func:`repro.serving.slo.summarize_slo_arrays`).  The reported
percentiles are always conditioned on *admitted* queries; shed queries
never enter a batch.
"""

import numpy as np

from repro.serving import event_kernels
from repro.serving.engine import ENGINES, ServingEngine
from repro.serving.queueing import (
    ServingReport,
    mgc_utilization,
    percentile,
    saturation_qps,
    traffic_rates,
)

#: Service orders the event simulation understands.
QUEUE_ORDERS = ("fifo", "edf")


def simulate_batch_queue(ready_times_us, service_times_us, num_servers=1,
                         order="fifo", priorities=None):
    """Discrete-event simulation of a multi-server batch queue.

    ``ready_times_us[i]`` is when batch ``i`` enters the dispatch queue
    (its formation time); ``num_servers`` servers drain the queue in
    ``order``: ``"fifo"`` serves in ready order, ``"edf"`` serves the
    waiting batch with the smallest ``priorities[i]`` (e.g. its earliest
    deadline; ties fall back to ready order).  Returns ``(start_us,
    complete_us, max_queue_depth)`` where the arrays are indexed like the
    inputs.
    """
    ready = np.asarray(ready_times_us, dtype=np.float64)
    services = np.asarray(service_times_us, dtype=np.float64)
    if ready.size != services.size:
        raise ValueError("need one service time per batch")
    if ready.size == 0:
        raise ValueError("need at least one batch")
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    if order not in QUEUE_ORDERS:
        raise ValueError("order must be one of %s" % (QUEUE_ORDERS,))
    arrival_order = np.argsort(ready, kind="stable")
    if order == "fifo" and num_servers == 1:
        # Single-server FIFO is a pure running recurrence -- start[i] =
        # max(ready[i], complete[i-1]) -- with the closed form
        # complete[i] = max_{j<=i}(ready[j] - C[j-1]) + C[i] over the
        # service prefix sums C, so the whole queue is three vector ops
        # instead of a heap loop.  The prefix-sum reassociation can
        # differ from the sequential recurrence in the last floating-
        # point ulp; it is exact on integer-valued times below 2**53.
        sorted_ready = ready[arrival_order]
        sorted_services = services[arrival_order]
        csum = np.cumsum(sorted_services)
        exclusive = np.concatenate(([0.0], csum[:-1]))
        sorted_completes = np.maximum.accumulate(sorted_ready - exclusive) \
            + csum
        sorted_starts = np.maximum(sorted_ready,
                                   sorted_completes - sorted_services)
        starts = np.empty_like(ready)
        completes = np.empty_like(ready)
        starts[arrival_order] = sorted_starts
        completes[arrival_order] = sorted_completes
    elif order == "fifo":
        starts, completes = event_kernels.fifo_queue_times(
            ready, services, arrival_order, num_servers)
    else:
        if priorities is None:
            raise ValueError("EDF order needs one priority per batch")
        priority = np.asarray(priorities, dtype=np.float64)
        if priority.size != ready.size:
            raise ValueError("need one priority per batch")
        starts, completes = event_kernels.edf_queue_times(
            ready, services, priority, arrival_order, num_servers)
    # Waiting-queue depth: a batch occupies the queue from ready to start,
    # and the depth only peaks just after an arrival -- so instead of
    # replaying a sorted 2B-event list, evaluate the depth at each sorted
    # arrival time directly from the already-computed start times:
    # arrivals so far minus starts at or before that instant (counting
    # ``start <= t`` reproduces the old tie rule that departures precede
    # arrivals, so a batch that starts immediately never counts).
    sorted_ready_times = ready[arrival_order]
    departed = np.searchsorted(np.sort(starts), sorted_ready_times,
                               side="right")
    depth_after_arrival = np.arange(1, ready.size + 1) - departed
    max_depth = max(0, int(depth_after_arrival.max()))
    return starts, completes, max_depth


class EventEngine(ServingEngine):
    """Measured-percentile serving engine.

    Drop-in alternative to the analytic engine: same inputs, same
    :class:`ServingReport` shape, but ``p50/p95/p99`` and the mean wait
    are measured from the simulated queue rather than approximated from
    the service moments.  ``order`` selects the dispatch-queue service
    order: ``"fifo"`` (the default) or ``"edf"`` (earliest deadline
    first over the batches' tightest query deadlines -- registered as
    the ``"event-edf"`` engine).  ``utilization`` keeps the analytic
    offered-load definition (``lambda * E[S] / c``) so engine-vs-engine
    comparisons line up; the measured busy fraction is reported in
    ``extras["measured_utilization"]``.
    """

    name = "event"

    def __init__(self, order="fifo"):
        if order not in QUEUE_ORDERS:
            raise ValueError("order must be one of %s" % (QUEUE_ORDERS,))
        self.order = order
        if order != "fifo":
            self.name = "event-%s" % order

    def summarize(self, system_name, batches, service_times_us,
                  num_servers=1, trigger_counts=None, extras=None,
                  slo_info=None, capture=None):
        services = np.asarray(service_times_us, dtype=np.float64)
        if len(batches) != services.size:
            raise ValueError("need one service time per batch")
        if not len(batches):
            raise ValueError("need at least one batch")
        ready = batches.formed_us
        priorities = None
        if self.order == "edf":
            # Deadline-free batches sort after every constrained one
            # (+inf priority); ready-time tie-breaks keep FIFO among them.
            earliest = batches.earliest_deadline_us()
            priorities = np.where(np.isnan(earliest), np.inf, earliest)
        starts, completes, max_depth = simulate_batch_queue(
            ready, services, num_servers, order=self.order,
            priorities=priorities)
        waits = starts - ready

        # Batch order equals query order within the columns, so np.repeat
        # broadcasts every batch time onto its queries (arrivals are
        # subtracted in place: no second run-sized array each).
        sizes = batches.sizes
        arrivals = batches.columns.arrival_us
        latencies = np.repeat(completes, sizes)
        latencies -= arrivals
        delays = np.repeat(ready, sizes)
        delays -= arrivals
        num_queries = batches.num_queries
        offered_qps, batch_rate_per_us = traffic_rates(batches)

        rho = mgc_utilization(batch_rate_per_us, services, num_servers)
        busy_span_us = max(float(completes.max() - ready.min()), 1e-9)
        measured_utilization = float(services.sum()) \
            / (num_servers * busy_span_us)

        mean_service = float(services.mean())
        sustainable_qps = saturation_qps(num_queries, len(batches),
                                         mean_service, num_servers)

        if capture is not None:
            # Observability deposit: arrays the queue maths already
            # produced, recorded after the fact -- the report below is
            # byte-identical with or without a capture.
            capture.record(
                engine=self.name, batches=batches, ready_us=ready,
                service_us=services, start_us=starts,
                complete_us=completes, latency_us=latencies,
                num_servers=num_servers, max_queue_depth=int(max_depth),
                measured_utilization=measured_utilization)

        run_extras = self._tag_extras(extras)
        run_extras.setdefault("num_frontends", num_servers)
        run_extras.setdefault("queue_order", self.order)
        run_extras.setdefault("measured_utilization", measured_utilization)
        run_extras.setdefault("max_queue_depth", int(max_depth))
        run_extras.setdefault("p99_wait_us", percentile(waits, 99.0))
        self._attach_slo(run_extras, batches, latencies, slo_info)
        p50, p95, p99 = percentile(latencies, (50.0, 95.0, 99.0))
        return ServingReport(
            system=system_name,
            num_queries=num_queries,
            num_batches=len(batches),
            offered_qps=float(offered_qps),
            utilization=rho,
            mean_service_us=mean_service,
            mean_batch_delay_us=float(np.mean(delays)),
            mean_wait_us=float(waits.mean()),
            mean_latency_us=float(np.mean(latencies)),
            p50_us=p50,
            p95_us=p95,
            p99_us=p99,
            sustainable_qps=sustainable_qps,
            num_servers=num_servers,
            trigger_counts=dict(trigger_counts or {}),
            extras=run_extras,
        )


ENGINES["event"] = EventEngine
ENGINES["event-edf"] = lambda: EventEngine(order="edf")
