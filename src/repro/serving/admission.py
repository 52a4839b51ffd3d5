"""Admission control: shed load before the batcher at saturation.

An overloaded FIFO serving node is worse than useless: the queue grows
without bound, *every* query blows through its deadline, and goodput
collapses to whatever finished before the backlog formed.  Admission
control trades a little throughput for bounded queues by rejecting
queries at arrival -- before they enter the batching frontend -- so the
admitted stream stays serveable.

Controllers are causal and deterministic: decisions depend only on the
query stream up to the arrival (never on future service times), driven by
a *fluid backlog model* -- admitted queries deposit an estimated
per-query service cost, ``num_servers`` frontends drain it in parallel,
and the predicted wait at an arrival is the remaining work divided by
the drain rate.  The estimate comes from the cluster's own service model
(:meth:`ShardedServingCluster.estimate_query_service_us`), so the
controller's view of capacity tracks the simulated hardware.

Every controller decides over columns:
:meth:`AdmissionController.admit_mask` takes one chunk's arrival and
slack vectors plus a carried state and returns the chunk's admit mask,
so chunked runs continue one model across chunk boundaries.  The four
built-ins are modes of the compiled
:func:`repro.serving.event_kernels.admission_mask`; a custom controller
implements ``admit_mask`` (and ``new_state`` if it carries more than the
fluid backlog).

Registry (``ADMISSION_CONTROLLERS`` / :func:`resolve_admission`):

* ``none`` -- admit everything (the open-loop baseline).
* ``token-bucket`` -- classic rate limiter: tokens refill at a target
  rate (default: the cluster's estimated capacity) up to a burst bound.
* ``queue-depth`` -- shed when the predicted queue depth (in queries)
  exceeds a threshold.
* ``deadline`` -- deadline-aware shedding: drop a query when its
  predicted wait plus the expected batch service time already exceeds
  its slack, so doomed queries never consume capacity.
"""

import abc

from repro.serving import event_kernels
from repro.serving.arrival import _require_finite


class AdmissionController(abc.ABC):
    """Strategy interface: admit or shed the queries of one chunk."""

    #: Registry name of the controller (also recorded in report extras).
    name = "admission"

    def new_state(self, first_arrival_us):
        """Fresh carried state of one run, starting at its first arrival
        (default: the kernel's vector, which holds the fluid backlog)."""
        return event_kernels.new_admission_state(first_arrival_us)

    @abc.abstractmethod
    def admit_mask(self, arrivals_us, slacks_us, state, num_servers,
                   est_query_us, est_batch_us):
        """Boolean admit mask of one chunk.

        ``arrivals_us`` are the chunk's sorted arrival times and
        ``slacks_us`` its deadline slacks (NaN = no deadline); ``state``
        comes from :meth:`new_state` and is updated in place.
        ``num_servers`` frontends drain the admitted work, estimated at
        ``est_query_us`` per query and ``est_batch_us`` per batch.
        """

    def describe(self):
        """Human-readable one-line description of the controller."""
        return self.name


class NoAdmission(AdmissionController):
    """Admit everything -- the open-loop baseline every sweep compares
    against (and the default: no query stream is ever filtered unless a
    controller is asked for)."""

    name = "none"

    def admit_mask(self, arrivals_us, slacks_us, state, num_servers,
                   est_query_us, est_batch_us):
        return event_kernels.admission_mask(
            arrivals_us, slacks_us, state, num_servers, est_query_us,
            est_batch_us, event_kernels.ADMISSION_MODE_NONE)


class TokenBucketAdmission(AdmissionController):
    """Rate-limit admissions with a token bucket.

    ``rate_qps`` tokens accrue per second (capped at ``burst``); each
    admission spends one.  ``rate_qps=None`` (the default) uses the
    cluster's estimated sustainable query rate, ``num_servers /
    est_query_us``, so the bucket passes everything below capacity and
    clips sustained overload to it -- bursts shorter than ``burst``
    queries still pass untouched.  The bucket starts full.
    """

    name = "token-bucket"

    def __init__(self, rate_qps=None, burst=32):
        if rate_qps is not None:
            _require_finite(rate_qps=rate_qps)
            if rate_qps <= 0:
                raise ValueError("rate_qps must be positive")
        _require_finite(burst=burst)
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_qps = None if rate_qps is None else float(rate_qps)
        self.burst = float(burst)

    def new_state(self, first_arrival_us):
        return event_kernels.new_admission_state(first_arrival_us,
                                                 self.burst)

    def admit_mask(self, arrivals_us, slacks_us, state, num_servers,
                   est_query_us, est_batch_us):
        rate_qps = self.rate_qps if self.rate_qps is not None \
            else num_servers / est_query_us * 1e6
        return event_kernels.admission_mask(
            arrivals_us, slacks_us, state, num_servers, est_query_us,
            est_batch_us, event_kernels.ADMISSION_MODE_TOKEN_BUCKET,
            rate_qps, self.burst)

    def describe(self):
        rate = "auto" if self.rate_qps is None else "%.0f QPS" \
            % self.rate_qps
        return "token-bucket (rate %s, burst %g)" % (rate, self.burst)


class QueueDepthAdmission(AdmissionController):
    """Shed when the predicted queue depth exceeds ``max_depth`` queries.

    Depth is the fluid backlog divided by the per-query cost estimate --
    the number of admitted-but-unserved queries ahead of the arrival.
    Bounds the worst-case dispatch wait at roughly ``max_depth *
    est_query_us / num_servers`` regardless of the offered load.
    """

    name = "queue-depth"

    def __init__(self, max_depth=64):
        _require_finite(max_depth=max_depth)
        if max_depth != int(max_depth):
            raise ValueError("max_depth must be an integer, got %r"
                             % (max_depth,))
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = int(max_depth)

    def admit_mask(self, arrivals_us, slacks_us, state, num_servers,
                   est_query_us, est_batch_us):
        return event_kernels.admission_mask(
            arrivals_us, slacks_us, state, num_servers, est_query_us,
            est_batch_us, event_kernels.ADMISSION_MODE_QUEUE_DEPTH,
            float(self.max_depth))

    def describe(self):
        return "queue-depth (max %d queries)" % self.max_depth


class DeadlineAwareAdmission(AdmissionController):
    """Shed queries that cannot meet their deadline anyway.

    A query is dropped when its predicted completion -- dispatch wait
    plus ``margin`` expected batch service times -- already exceeds its
    slack (``deadline - arrival``).  Queries without a deadline are
    always admitted (there is nothing to protect).  Unlike the blind
    limiters this frees exactly the capacity that would have been wasted
    on doomed queries, which is why it wins on goodput at overload.

    The default ``margin`` of 1.5 reserves half a batch service of
    headroom beyond the query's own batch: the fluid backlog model
    ignores batch-fill delay and batch quantisation, so admitting right
    up to the predicted deadline leaves the marginal admits missing by
    a hair (measured on the fig16 overload sweep: attainment collapses
    from ~99.6% to ~46% at 2x offered load with ``margin=1.0``).
    """

    name = "deadline"

    def __init__(self, margin=1.5):
        _require_finite(margin=margin)
        if margin <= 0:
            raise ValueError("margin must be positive")
        self.margin = float(margin)

    def admit_mask(self, arrivals_us, slacks_us, state, num_servers,
                   est_query_us, est_batch_us):
        return event_kernels.admission_mask(
            arrivals_us, slacks_us, state, num_servers, est_query_us,
            est_batch_us, event_kernels.ADMISSION_MODE_DEADLINE,
            self.margin)

    def describe(self):
        return "deadline-aware (margin %.1fx batch service)" % self.margin


#: Controller registry: name -> zero-argument factory.
ADMISSION_CONTROLLERS = {
    "none": NoAdmission,
    "token-bucket": TokenBucketAdmission,
    "queue-depth": QueueDepthAdmission,
    "deadline": DeadlineAwareAdmission,
}


def available_admission_controllers():
    """Sorted names of the registered admission controllers."""
    return sorted(ADMISSION_CONTROLLERS)


def resolve_admission(admission):
    """Normalise an ``admission=`` argument.

    ``None`` means *no admission stage at all* (the cluster skips the
    filter entirely -- byte-identical to the pre-SLO behaviour), which is
    distinct from ``"none"``: an explicit controller that admits
    everything but still reports shed accounting.  Also accepts a
    registered name, a controller class, or a ready instance.
    """
    if admission is None:
        return None
    if isinstance(admission, AdmissionController):
        return admission
    if isinstance(admission, type) \
            and issubclass(admission, AdmissionController):
        return admission()
    try:
        factory = ADMISSION_CONTROLLERS[admission]
    except (KeyError, TypeError):
        raise ValueError(
            "unknown admission controller %r; available: %s"
            % (admission, ", ".join(available_admission_controllers())))
    return factory()
