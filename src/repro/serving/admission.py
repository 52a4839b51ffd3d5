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

The model exists twice: :func:`admission_loop` calls any controller's
``admit`` per query (custom controllers and :func:`apply_admission`),
and :func:`repro.serving.event_kernels.admission_mask` runs the four
built-ins as one compiled pass (:func:`admission_kernel_spec`).  Both
carry their state in one vector, so chunked runs continue it across
chunk boundaries.

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


class AdmissionController(abc.ABC):
    """Strategy interface: admit or shed one arriving query.

    Subclasses read the shared capacity estimates installed by
    :meth:`configure` (called once per run, before the first decision)
    and keep any per-run state reset by :meth:`reset`.
    """

    #: Registry name of the controller (also recorded in report extras).
    name = "admission"

    def configure(self, capacity_qps, est_query_us, est_batch_us,
                  num_servers):
        """Install the run's capacity estimates (once, before reset)."""
        self._capacity_qps = float(capacity_qps)
        self._est_query_us = float(est_query_us)
        self._est_batch_us = float(est_batch_us)
        self._num_servers = int(num_servers)

    def reset(self):
        """Forget per-run state (token levels, counters); default none."""

    @abc.abstractmethod
    def admit(self, query, now_us, predicted_wait_us):
        """True to admit ``query`` arriving at ``now_us``.

        ``predicted_wait_us`` is the fluid-model dispatch wait the query
        would see if admitted (0 when the virtual queue is empty).
        """

    def describe(self):
        """Human-readable one-line description of the controller."""
        return self.name


class NoAdmission(AdmissionController):
    """Admit everything -- the open-loop baseline every sweep compares
    against (and the default: no query stream is ever filtered unless a
    controller is asked for)."""

    name = "none"

    def admit(self, query, now_us, predicted_wait_us):
        return True


class TokenBucketAdmission(AdmissionController):
    """Rate-limit admissions with a token bucket.

    ``rate_qps`` tokens accrue per second (capped at ``burst``); each
    admission spends one.  ``rate_qps=None`` (the default) uses the
    cluster's estimated sustainable query rate, so the bucket passes
    everything below capacity and clips sustained overload to it --
    bursts shorter than ``burst`` queries still pass untouched.
    """

    name = "token-bucket"

    def __init__(self, rate_qps=None, burst=32):
        if rate_qps is not None and rate_qps <= 0:
            raise ValueError("rate_qps must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_qps = None if rate_qps is None else float(rate_qps)
        self.burst = float(burst)

    def configure(self, capacity_qps, est_query_us, est_batch_us,
                  num_servers):
        super().configure(capacity_qps, est_query_us, est_batch_us,
                          num_servers)
        self._rate_qps = self.rate_qps if self.rate_qps is not None \
            else capacity_qps
        if self._rate_qps <= 0:
            raise ValueError("token refill rate must be positive; pass "
                             "rate_qps explicitly")

    def reset(self):
        self._tokens = self.burst
        self._last_us = None

    def admit(self, query, now_us, predicted_wait_us):
        if self._last_us is not None and now_us > self._last_us:
            self._tokens = min(
                self.burst,
                self._tokens + (now_us - self._last_us) * self._rate_qps
                / 1e6)
        self._last_us = now_us
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

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
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = int(max_depth)

    def admit(self, query, now_us, predicted_wait_us):
        depth = predicted_wait_us * self._num_servers / self._est_query_us
        return depth < self.max_depth

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
        if margin <= 0:
            raise ValueError("margin must be positive")
        self.margin = float(margin)

    def admit(self, query, now_us, predicted_wait_us):
        slack = query.slack_us
        if slack is None:
            return True
        predicted_latency = predicted_wait_us \
            + self.margin * self._est_batch_us
        return predicted_latency <= slack

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


def admission_kernel_spec(controller, capacity_qps):
    """Kernel parameters for a built-in controller, None for customs.

    Returns ``(mode, param0, param1, initial_tokens)`` consumable by
    :func:`repro.serving.event_kernels.admission_mask`, or ``None`` when
    ``controller`` is not an *exact* instance of one of the four
    built-in classes -- subclasses may override ``admit``/``reset``
    arbitrarily, so they run through :func:`admission_loop`.
    ``capacity_qps`` resolves the token bucket's default refill rate,
    mirroring :meth:`TokenBucketAdmission.configure`.
    """
    kind = type(controller)
    if kind is NoAdmission:
        return (event_kernels.ADMISSION_MODE_NONE, 0.0, 0.0, 0.0)
    if kind is TokenBucketAdmission:
        rate_qps = controller.rate_qps if controller.rate_qps is not None \
            else float(capacity_qps)
        if rate_qps <= 0:
            raise ValueError("token refill rate must be positive; pass "
                             "rate_qps explicitly")
        return (event_kernels.ADMISSION_MODE_TOKEN_BUCKET, rate_qps,
                controller.burst, controller.burst)
    if kind is QueueDepthAdmission:
        return (event_kernels.ADMISSION_MODE_QUEUE_DEPTH,
                float(controller.max_depth), 0.0, 0.0)
    if kind is DeadlineAwareAdmission:
        return (event_kernels.ADMISSION_MODE_DEADLINE, controller.margin,
                0.0, 0.0)
    return None


def admission_loop(queries, controller, num_servers, est_query_us, state):
    """The fluid backlog model, one ``controller.admit`` call per query.

    ``queries`` (objects or ``ColumnQueryView`` rows) arrive in order;
    admitted queries add ``est_query_us`` of work, ``num_servers``
    frontends drain it in parallel, and each decision sees the predicted
    wait at its arrival.  ``state`` is the carried vector of
    :func:`~repro.serving.event_kernels.new_admission_state`; its
    backlog and last-arrival slots are updated in place, so consecutive
    chunks continue one model.  Returns one admit flag per query.  The
    built-in controllers run the same model as the
    :func:`~repro.serving.event_kernels.admission_mask` kernel.
    """
    backlog_us = float(state[event_kernels.ADM_BACKLOG_US])
    last_us = float(state[event_kernels.ADM_LAST_US])
    admitted = []
    for query in queries:
        now_us = query.arrival_us
        backlog_us = max(0.0, backlog_us - (now_us - last_us) * num_servers)
        last_us = now_us
        admit = bool(controller.admit(query, now_us,
                                      backlog_us / num_servers))
        admitted.append(admit)
        if admit:
            backlog_us += est_query_us
    state[event_kernels.ADM_BACKLOG_US] = backlog_us
    state[event_kernels.ADM_LAST_US] = last_us
    return admitted


def apply_admission(queries, controller, num_servers, est_query_us,
                    est_batch_us=None):
    """Filter a query stream through an admission controller.

    Configures and resets ``controller``, then runs
    :func:`admission_loop` over the queries in arrival order (ties
    broken by query id).  Returns ``(admitted, shed)`` -- two lists
    partitioning the input, in arrival order.
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    if est_query_us <= 0:
        raise ValueError("est_query_us must be positive")
    if est_batch_us is None:
        est_batch_us = est_query_us
    if est_batch_us <= 0:
        raise ValueError("est_batch_us must be positive")
    ordered = sorted(queries, key=lambda q: (q.arrival_us, q.query_id))
    capacity_qps = num_servers / est_query_us * 1e6
    controller.configure(capacity_qps, est_query_us, est_batch_us,
                         num_servers)
    controller.reset()
    state = event_kernels.new_admission_state(
        ordered[0].arrival_us if ordered else 0.0)
    flags = admission_loop(ordered, controller, num_servers, est_query_us,
                           state)
    admitted = [query for query, admit in zip(ordered, flags) if admit]
    shed = [query for query, admit in zip(ordered, flags) if not admit]
    return admitted, shed
