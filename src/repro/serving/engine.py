"""The pluggable serving-engine interface.

A *serving engine* turns dispatched batches and their simulated service
times into a :class:`~repro.serving.queueing.ServingReport` -- the step
that models what the dispatch queue does to per-query latency.  Two
interchangeable implementations exist:

* :class:`AnalyticEngine` -- the closed-form M/G/c model from
  :mod:`repro.serving.queueing` (Erlang-C waiting probability,
  Lee-Longton mean wait, exponential-tail quantiles).  One pass over the
  service times; exact only in its assumptions.
* :class:`~repro.serving.events.EventEngine` -- a discrete-event
  simulation of the FIFO dispatch queue across ``num_frontends``
  concurrent servers that *measures* per-query latency percentiles
  instead of approximating them.  The reference at high utilisation,
  where the exponential-tail approximation is unvalidated.

Engines are resolved by name (``"analytic"`` / ``"event"`` /
``"event-edf"``, the event simulation serving earliest-deadline-first
instead of FIFO) or passed as instances;
:meth:`ShardedServingCluster.simulate` and ``qps_sweep`` accept either
through their ``engine=`` parameter, with the analytic engine as the
backward-compatible default.

Engines consume the *whole* run in one ``summarize`` call: the batches
as :class:`~repro.serving.query_columns.BatchColumns` (the one batch
representation) and the per-batch service-time vector -- they never
resolve service times themselves.  The
cluster produces that vector through
:meth:`ServiceTimeModel.service_times_us`, whose exact mode
batch-deduplicates and fans the unique misses out through the cluster's
node-level backend, so the engine layer stays oblivious to caching,
persistence and parallel resolution.  ``summarize`` must also stay a
pure function of its arguments (every built-in engine is): parallel
``qps_sweep`` backends run points on cluster clones and worker-process
rebuilds, where cross-point engine state would silently diverge from
the serial loop.
"""

import abc

from repro.serving.queueing import summarize_serving


class ServingEngine(abc.ABC):
    """Strategy interface: batches + service times -> ServingReport."""

    #: Registry name of the engine (also recorded in report extras).
    name = "engine"

    @abc.abstractmethod
    def summarize(self, system_name, batches, service_times_us,
                  num_servers=1, trigger_counts=None, extras=None,
                  slo_info=None, capture=None):
        """Produce a :class:`ServingReport` for one serving run.

        ``batches`` are the dispatched batches in dispatch order, as the
        :class:`~repro.serving.query_columns.BatchColumns` the batcher
        forms.  ``service_times_us`` are the per-batch execution times on the
        cluster, and ``num_servers`` the number of concurrent dispatch
        frontends draining the batch queue.  ``slo_info`` is the
        admission context from the cluster (offered/shed counts, policy
        names); when present -- or when any query carries a deadline --
        the engine attaches deadline accounting to ``extras["slo"]``
        (:func:`repro.serving.slo.summarize_slo_arrays`).

        ``capture``, when given, is a
        :class:`~repro.obs.capture.RunCapture` the engine must fill
        (one :meth:`~repro.obs.capture.RunCapture.record` call) with
        the per-batch ready/start/complete/service arrays and per-query
        latencies it already computed -- strictly *after* the queue
        maths, so the report is byte-identical with or without a
        capture.  The default ``None`` skips all of it.
        """

    def describe(self):
        """Human-readable one-line description of the engine."""
        return self.name

    def _tag_extras(self, extras):
        """Engine-stamped copy of the caller's extras dict."""
        tagged = dict(extras or {})
        tagged.setdefault("engine", self.name)
        return tagged

    def _attach_slo(self, extras, batch_columns, latencies_us, slo_info):
        """Attach ``extras["slo"]`` when the run carries SLO context."""
        from repro.serving.slo import maybe_summarize_slo_arrays

        columns = batch_columns.columns
        record = maybe_summarize_slo_arrays(
            columns.arrival_us, columns.deadline_us, latencies_us, slo_info)
        if record is not None:
            extras.setdefault("slo", record)


class AnalyticEngine(ServingEngine):
    """Closed-form M/G/c engine (the PR-1 model, now multi-server aware).

    Wraps :func:`repro.serving.queueing.summarize_serving`: waiting times
    from the first two moments of the service distribution, quantiles from
    the Erlang-C exponential-tail approximation.  Cheap (one vectorised
    pass) but approximate -- validate against the event engine near
    saturation (``benchmarks/bench_queue_validation.py`` does exactly
    that).
    """

    name = "analytic"

    def summarize(self, system_name, batches, service_times_us,
                  num_servers=1, trigger_counts=None, extras=None,
                  slo_info=None, capture=None):
        return summarize_serving(
            system_name, batches, service_times_us,
            trigger_counts=trigger_counts,
            extras=self._tag_extras(extras),
            num_servers=num_servers, slo_info=slo_info,
            capture=capture)


#: Engine registry: name -> zero-argument factory.
ENGINES = {"analytic": AnalyticEngine}


def available_engines():
    """Sorted names of the registered serving engines."""
    return sorted(ENGINES)


def resolve_engine(engine):
    """Normalise an ``engine=`` argument into a :class:`ServingEngine`.

    Accepts ``None`` (the default analytic engine), a registered engine
    name, an engine class, or a ready instance.
    """
    # Imported for the side effect of registering "event" (kept out of
    # module scope to avoid a cycle: events.py imports this interface).
    from repro.serving import events  # noqa: F401

    if engine is None:
        return AnalyticEngine()
    if isinstance(engine, ServingEngine):
        return engine
    if isinstance(engine, type) and issubclass(engine, ServingEngine):
        return engine()
    try:
        factory = ENGINES[engine]
    except (KeyError, TypeError):
        raise ValueError("unknown serving engine %r; available: %s"
                         % (engine, ", ".join(available_engines())))
    return factory()
