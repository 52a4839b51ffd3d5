"""Closed-form queueing step: batch service times -> latency percentiles.

The serving simulator produces one *service time* per batch (the simulated
execution time on the sharded cluster).  Rather than event-driven simulation
of the dispatch queue, the frontend is modelled as an M/G/c queue in steady
state: ``c`` identical dispatch servers (frontends) drain a single FIFO
batch queue.  The waiting-time mean comes from the Lee-Longton
approximation ``W(M/G/c) = (1 + CV^2)/2 * W(M/M/c)`` -- which reduces
*exactly* to the Pollaczek-Khinchine formula at ``c = 1`` -- and the
waiting-time quantiles from the matching Erlang-C exponential-tail
approximation.  Combined with the exact per-query batching delays this
turns one pass of batch simulations into p50/p95/p99 latency and a
sustainable-QPS number.

The event-driven alternative that *measures* these quantities instead of
approximating them lives in :mod:`repro.serving.events`; both are exposed
behind the :class:`~repro.serving.engine.ServingEngine` interface.
"""

import math
from dataclasses import dataclass, field

import numpy as np


def percentile(samples, p):
    """The ``p``-th percentile with linear interpolation (0 <= p <= 100).

    A sequence of ``p`` returns a tuple of floats, one per ``p``, from
    one partition of ``samples`` (each equal to its single-``p`` call).
    """
    points = np.asarray(p, dtype=np.float64)
    if not np.all((points >= 0) & (points <= 100)):
        raise ValueError("p must be in [0, 100]")
    array = np.asarray(samples, dtype=np.float64)
    if array.size == 0:
        raise ValueError("need at least one sample")
    if points.ndim == 0:
        return float(np.percentile(array, p))
    return tuple(np.percentile(array, points).tolist())


def mgc_utilization(arrival_rate_per_us, service_times_us, num_servers):
    """Per-server utilisation ``rho = lambda * E[S] / c`` of the queue."""
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    services = np.asarray(service_times_us, dtype=np.float64)
    if services.size == 0:
        raise ValueError("need at least one service time")
    return float(arrival_rate_per_us * services.mean() / num_servers)


def erlang_c(num_servers, offered_load):
    """Erlang-C probability that an arrival waits (M/M/c queue).

    ``offered_load`` is ``a = lambda * E[S]`` in erlangs; the queue is
    stable only for ``a < num_servers``.  For one server this is simply
    ``a`` (the utilisation), which is why the ``c = 1`` specialisations
    below match the classic M/G/1 formulas term for term.
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    if offered_load < 0:
        raise ValueError("offered_load must be non-negative")
    if offered_load >= num_servers:
        return 1.0
    if offered_load == 0.0:
        return 0.0
    # Iterative Erlang-B, then convert to Erlang-C: numerically stable for
    # any server count (no explicit factorials).
    erlang_b = 1.0
    for k in range(1, num_servers + 1):
        erlang_b = offered_load * erlang_b / (k + offered_load * erlang_b)
    rho = offered_load / num_servers
    return erlang_b / (1.0 - rho + rho * erlang_b)


def mgc_mean_wait_us(arrival_rate_per_us, service_times_us, num_servers):
    """Mean queueing delay of an M/G/c queue (Lee-Longton approximation).

    ``W = (1 + CV^2) / 2 * ErlangC(c, a) * E[S] / (c * (1 - rho))``.  At
    ``c = 1`` the Erlang-C term is ``rho`` and the expression reduces
    exactly to Pollaczek-Khinchine.  Returns ``inf`` when the queue is
    unstable (rho >= 1).
    """
    services = np.asarray(service_times_us, dtype=np.float64)
    rho = mgc_utilization(arrival_rate_per_us, services, num_servers)
    if rho >= 1.0:
        return float("inf")
    mean_service = float(services.mean())
    if mean_service <= 0.0 or arrival_rate_per_us <= 0.0:
        return 0.0
    second_moment = float((services ** 2).mean())
    cv_squared = second_moment / mean_service ** 2 - 1.0
    offered = arrival_rate_per_us * mean_service
    wait_mmc = erlang_c(num_servers, offered) * mean_service \
        / (num_servers * (1.0 - rho))
    return (1.0 + cv_squared) / 2.0 * wait_mmc


def wait_quantile_us(arrival_rate_per_us, service_times_us, p,
                     num_servers=1):
    """Approximate ``p``-th percentile of the queueing delay.

    Uses the Erlang-C exponential-tail approximation
    ``P(W > t) = C(c, a) * exp(-c * (1 - rho) * t / E[S])`` (exact for
    M/M/c, a good heavy-traffic approximation for M/G/c).  At ``c = 1``
    the waiting probability ``C(1, a)`` equals ``rho`` and the formula is
    the classic ``rho * exp(-(1 - rho) * t / E[S])``.  Returns 0 for
    quantiles below the probability mass of not waiting at all, ``inf``
    when the queue is unstable.
    """
    if not 0 <= p <= 100:
        raise ValueError("p must be in [0, 100]")
    services = np.asarray(service_times_us, dtype=np.float64)
    rho = mgc_utilization(arrival_rate_per_us, services, num_servers)
    if rho >= 1.0:
        return float("inf")
    mean_service = float(services.mean())
    if mean_service <= 0.0 or arrival_rate_per_us <= 0.0:
        return 0.0
    wait_probability = erlang_c(num_servers,
                                arrival_rate_per_us * mean_service)
    tail = 1.0 - p / 100.0
    if tail >= wait_probability:
        return 0.0
    return -math.log(tail / wait_probability) * mean_service \
        / (num_servers * (1.0 - rho))


def traffic_rates(batches):
    """Offered query rate and batch arrival rate of a dispatched run.

    Returns ``(offered_qps, batch_rate_per_us)`` for a
    :class:`~repro.serving.query_columns.BatchColumns`: the query rate
    over the arrival span and the batch rate over the formation span.
    Both use the interval form ``(N - 1) / span`` -- the
    maximum-likelihood rate estimate from N arrivals, and the only form
    that stays finite when the span degenerates.  A single query (or a
    single batch), and identical arrival (or dispatch) times, carry no
    rate information at all, so those degenerate spans report a rate of
    0 rather than exploding on an epsilon floor.
    """
    arrivals = batches.columns.arrival_us
    num_queries = batches.num_queries
    span_us = arrivals.max() - arrivals.min()
    offered_qps = ((num_queries - 1) / span_us * 1e6
                   if num_queries > 1 and span_us > 0.0 else 0.0)
    batch_rate_per_us = 0.0
    if len(batches) > 1:
        formed = batches.formed_us
        batch_span_us = formed.max() - formed.min()
        batch_rate_per_us = ((len(batches) - 1) / batch_span_us
                             if batch_span_us > 0.0 else 0.0)
    return offered_qps, batch_rate_per_us


def saturation_qps(num_queries, num_batches, mean_service_us, num_servers):
    """Query rate at which ``num_servers`` frontends saturate.

    The cluster saturates when batches arrive as fast as its frontends
    serve them: ``c / E[S]`` batches per microsecond, each carrying
    E[queries-per-batch].
    """
    return num_servers * (num_queries / num_batches) \
        / mean_service_us * 1e6


@dataclass
class ServingReport:
    """Latency and throughput summary of one serving run."""

    system: str
    num_queries: int
    num_batches: int
    offered_qps: float
    utilization: float
    mean_service_us: float
    mean_batch_delay_us: float
    mean_wait_us: float
    mean_latency_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    sustainable_qps: float
    num_servers: int = 1
    trigger_counts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def stable(self):
        return self.utilization < 1.0

    def as_dict(self):
        return {
            "system": self.system,
            "num_queries": self.num_queries,
            "num_batches": self.num_batches,
            "offered_qps": self.offered_qps,
            "utilization": self.utilization,
            "mean_service_us": self.mean_service_us,
            "mean_batch_delay_us": self.mean_batch_delay_us,
            "mean_wait_us": self.mean_wait_us,
            "mean_latency_us": self.mean_latency_us,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "sustainable_qps": self.sustainable_qps,
            "num_servers": self.num_servers,
            "stable": self.stable,
            "trigger_counts": dict(self.trigger_counts),
            "extras": dict(self.extras),
        }


def summarize_serving(system_name, batches, service_times_us,
                      trigger_counts=None, extras=None, num_servers=1,
                      slo_info=None, capture=None):
    """Turn per-batch service times into a :class:`ServingReport`.

    ``batches`` are the dispatched batches, a
    :class:`~repro.serving.query_columns.BatchColumns`;
    ``service_times_us`` the simulated execution time of each.  A
    per-query latency percentile combines the exact batching-delay-plus-
    service distribution with the M/G/c waiting-time quantile at the same
    percentile (:func:`wait_quantile_us`), so the tail reflects queueing
    variance, not just the mean wait.  ``num_servers`` is the number of
    concurrent dispatch frontends draining the batch queue.

    When ``slo_info`` is given -- or any query carries a deadline --
    ``extras["slo"]`` gains the deadline accounting of
    :func:`repro.serving.slo.summarize_slo_arrays`, using the analytic
    per-query latency approximation (batching delay + service + mean
    wait) in place of measured completions; quote attainment from the
    event engine where the tail matters.

    ``capture`` is an optional :class:`~repro.obs.capture.RunCapture`
    the observability layer passes through ``simulate(trace=/metrics=)``.
    The analytic model has no per-batch queue timeline, so the capture's
    start times are the formation times plus the mean wait -- a
    model-consistent *approximate* timeline (marked as such), whose
    per-query span sums still reconcile with the reported latencies.
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    services = np.asarray(service_times_us, dtype=np.float64)
    if len(batches) != services.size:
        raise ValueError("need one service time per batch")
    if not len(batches):
        raise ValueError("need at least one batch")
    # Batch order equals query order inside the columns, so np.repeat
    # broadcasts every batch quantity onto its queries.
    sizes = batches.sizes
    arrivals = batches.columns.arrival_us
    num_queries = batches.num_queries
    formed = batches.formed_us
    delays = np.repeat(formed, sizes) - arrivals
    offered_qps, batch_rate_per_us = traffic_rates(batches)
    base_samples = delays + np.repeat(services, sizes)
    rho = mgc_utilization(batch_rate_per_us, services, num_servers)
    mean_wait = mgc_mean_wait_us(batch_rate_per_us, services, num_servers)
    percentiles = {
        "p%g" % p: percentile(base_samples, p)
        + wait_quantile_us(batch_rate_per_us, services, p,
                           num_servers=num_servers)
        for p in (50.0, 95.0, 99.0)
    }
    samples = base_samples + mean_wait
    mean_service = float(services.mean())
    sustainable_qps = saturation_qps(num_queries, len(batches),
                                     mean_service, num_servers)
    if capture is not None:
        approx_starts = formed + mean_wait
        capture.record(
            engine="analytic", batches=batches, ready_us=formed,
            service_us=services, start_us=approx_starts,
            complete_us=approx_starts + services, latency_us=samples,
            num_servers=num_servers, approximate=True)
    # Lazy import: repro.serving.slo imports this module.
    from repro.serving.slo import maybe_summarize_slo_arrays

    extras = dict(extras or {})
    slo_record = maybe_summarize_slo_arrays(
        arrivals, batches.columns.deadline_us, samples, slo_info)
    if slo_record is not None:
        extras.setdefault("slo", slo_record)
    return ServingReport(
        system=system_name,
        num_queries=num_queries,
        num_batches=len(batches),
        offered_qps=float(offered_qps),
        utilization=rho,
        mean_service_us=mean_service,
        mean_batch_delay_us=float(np.mean(delays)),
        mean_wait_us=mean_wait,
        mean_latency_us=float(np.mean(samples)),
        p50_us=percentiles["p50"],
        p95_us=percentiles["p95"],
        p99_us=percentiles["p99"],
        sustainable_qps=sustainable_qps,
        num_servers=num_servers,
        trigger_counts=dict(trigger_counts or {}),
        extras=dict(extras or {}),
    )
