"""SLO policies and deadline accounting for the serving layer.

The serving engines historically reported *unconditional* latency
percentiles: every query counted the same whether it finished in time or
not.  Production serving is judged differently -- each query carries a
deadline and the system is scored on *goodput* (deadline-meeting
completions per second) and *SLO attainment* (the fraction of admitted
queries that met their deadline).  This module provides:

* :class:`SLOPolicy` -- assigns a deadline to every query of a stream.
  Three implementations: a fixed per-query budget
  (:class:`FixedSLOPolicy`), a budget scaling with the number of tables a
  query touches (:class:`PerTableSLOPolicy`), and a budget derived from a
  percentile of observed service times
  (:class:`ServicePercentileSLOPolicy`).
* :func:`summarize_slo_arrays` -- the shared deadline bookkeeping both
  serving engines attach to their reports (``extras["slo"]``):
  attainment, goodput, shed rate, and the admission counts.
  :func:`summarize_slo` is the same record for a query list.

Deadlines are *absolute* times (``arrival_us + slack``), so a query's
latency meets its SLO exactly when ``complete_us <= deadline_us``.
Deadline assignment is passive: it never changes batching, service times
or the reported percentiles -- admission control
(:mod:`repro.serving.admission`) and the EDF service order
(:class:`~repro.serving.events.EventEngine`) are the active consumers.
"""

import abc

import numpy as np

from repro.serving.queueing import percentile


class SLOPolicy(abc.ABC):
    """Strategy interface: assign a completion deadline to each query."""

    #: Registry name of the policy (also recorded in report extras).
    name = "slo-policy"

    @abc.abstractmethod
    def slack_us(self, query):
        """Time budget (us) from the query's arrival to its deadline."""

    def assign_deadlines(self, queries):
        """Set ``deadline_us = arrival_us + slack`` on every query.

        Mutates the queries in place and returns them (assignment is
        idempotent for deterministic policies).
        """
        for query in queries:
            query.deadline_us = query.arrival_us + self.slack_us(query)
        return queries

    def assign_deadlines_columns(self, columns):
        """Deadline assignment over a
        :class:`~repro.serving.query_columns.QueryColumns` (the step
        ``ShardedServingCluster.simulate`` runs).

        A built-in policy writes the whole column at once from its
        ``_slack_column``, but only while that class's own
        :meth:`slack_us` is in force: a subclass that overrides
        ``slack_us`` alone gets :meth:`slack_us` evaluated per row view,
        like any custom policy.  Mutates the deadline column in place
        and returns the columns.
        """
        if self._slack_column_applies():
            columns.deadline_us[:] = columns.arrival_us \
                + self._slack_column(columns)
            return columns
        deadline = columns.deadline_us
        for position in range(len(columns)):
            deadline[position] = columns.arrival_us[position] \
                + self.slack_us(columns.view(position))
        return columns

    def _slack_column_applies(self):
        """True when the class defining the effective ``slack_us`` also
        defines ``_slack_column`` (so the two agree by construction)."""
        for klass in type(self).__mro__:
            if "slack_us" in vars(klass):
                return "_slack_column" in vars(klass)
        return False

    def describe(self):
        """Human-readable one-line description of the policy."""
        return self.name


class FixedSLOPolicy(SLOPolicy):
    """Every query gets the same latency budget (the classic p99 SLO)."""

    name = "fixed"

    def __init__(self, slo_us):
        if slo_us <= 0:
            raise ValueError("slo_us must be positive")
        self.slo_us = float(slo_us)

    def slack_us(self, query):
        return self.slo_us

    def _slack_column(self, columns):
        return self.slo_us

    def describe(self):
        return "fixed %.0f us" % self.slo_us


class PerTableSLOPolicy(SLOPolicy):
    """Budget scales with the number of tables a query fans out to.

    Wide queries touch more shards and legitimately take longer, so a
    flat budget either starves them or slackens everyone else:
    ``slack = base_us + per_table_us * num_tables``.
    """

    name = "per-table"

    def __init__(self, base_us, per_table_us):
        if base_us < 0 or per_table_us < 0:
            raise ValueError("budgets must be non-negative")
        if base_us + per_table_us <= 0:
            raise ValueError("the total budget must be positive")
        self.base_us = float(base_us)
        self.per_table_us = float(per_table_us)

    def slack_us(self, query):
        return self.base_us + self.per_table_us * query.num_tables

    def _slack_column(self, columns):
        # num_requests holds the per-query table count; int64 -> float64
        # is exact for any realistic fan-out, so the vectorised slack
        # matches the scalar ``base + per_table * num_tables`` bitwise.
        return self.base_us \
            + self.per_table_us * columns.num_requests.astype(np.float64)

    def describe(self):
        return "per-table %.0f + %.0f us/table" % (self.base_us,
                                                   self.per_table_us)


class ServicePercentileSLOPolicy(SLOPolicy):
    """Budget anchored to the service-time distribution itself.

    ``slack = multiplier * percentile(service_times_us, p)`` -- the
    standard way to set an achievable SLO from measurements: e.g. three
    times the p99 batch service time leaves room for batching delay and
    a moderate queue without being trivially loose.
    """

    name = "service-percentile"

    def __init__(self, service_times_us, p=99.0, multiplier=3.0):
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        reference = percentile(service_times_us, p)
        if reference <= 0:
            raise ValueError("service-time percentile must be positive")
        self.p = float(p)
        self.multiplier = float(multiplier)
        self._slack_us = self.multiplier * reference

    def slack_us(self, query):
        return self._slack_us

    def _slack_column(self, columns):
        return self._slack_us

    def describe(self):
        return "%.1fx p%g service time (%.0f us)" % (self.multiplier,
                                                     self.p, self._slack_us)


#: Policy registry (introspection/docs; policies need constructor
#: arguments, so resolution only instantiates from numbers -- see
#: :func:`resolve_slo_policy`).
SLO_POLICIES = {
    "fixed": FixedSLOPolicy,
    "per-table": PerTableSLOPolicy,
    "service-percentile": ServicePercentileSLOPolicy,
}


def available_slo_policies():
    """Sorted names of the registered SLO policies."""
    return sorted(SLO_POLICIES)


def resolve_slo_policy(policy):
    """Normalise an ``slo_policy=`` argument.

    Accepts ``None`` (no SLO accounting), a ready :class:`SLOPolicy`
    instance, or a number (a fixed per-query budget in microseconds).
    Names alone are rejected -- every policy needs parameters -- with a
    message listing the available classes.
    """
    if policy is None:
        return None
    if isinstance(policy, SLOPolicy):
        return policy
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        return FixedSLOPolicy(policy)
    raise ValueError(
        "slo_policy must be None, a number of microseconds, or an "
        "SLOPolicy instance (available classes: %s)"
        % ", ".join(available_slo_policies()))


def _query_arrays(queries):
    """``(arrival_us, slack_us)`` float64 vectors of a query list, with
    NaN slack for deadline-free queries."""
    arrivals = np.asarray([query.arrival_us for query in queries],
                          dtype=np.float64)
    slack = [getattr(query, "slack_us", None) for query in queries]
    slack = np.asarray([np.nan if value is None else value
                        for value in slack], dtype=np.float64)
    return arrivals, slack


def maybe_summarize_slo(queries, latencies_us, slo_info=None):
    """:func:`summarize_slo` when the run carries SLO context, else None
    (:func:`maybe_summarize_slo_arrays` over a query list)."""
    arrivals, slack = _query_arrays(queries)
    return maybe_summarize_slo_arrays(arrivals, slack, latencies_us,
                                      slo_info)


def summarize_slo(queries, latencies_us, slo_info=None):
    """Deadline bookkeeping for one serving run (``extras["slo"]``).

    ``queries`` are the *admitted* queries in the engine's sample order
    and ``latencies_us`` their per-query latencies; see
    :func:`summarize_slo_arrays`, which this calls on the queries'
    arrival and slack vectors.
    """
    arrivals, slack = _query_arrays(queries)
    return summarize_slo_arrays(arrivals, slack, latencies_us, slo_info)


def maybe_summarize_slo_arrays(arrival_us, slack_us, latencies_us,
                               slo_info=None):
    """:func:`summarize_slo_arrays` when the run carries SLO context,
    else None.

    The shared trigger both serving engines use: accounting is attached
    when the cluster passed admission context (``slo_info``) *or* any
    query carries a deadline (assigned by a policy or by hand).
    ``slack_us`` is the per-admitted-query slack vector with NaN for
    deadline-free queries.
    """
    has_deadline = ~np.isnan(slack_us)
    if slo_info is None and not has_deadline.any():
        return None
    return summarize_slo_arrays(arrival_us, slack_us, latencies_us,
                                slo_info, has_deadline)


def summarize_slo_arrays(arrival_us, slack_us, latencies_us, slo_info=None,
                         has_deadline=None):
    """Deadline bookkeeping for one serving run over per-query arrays.

    ``arrival_us`` / ``slack_us`` / ``latencies_us`` describe the
    *admitted* queries (NaN slack = no deadline); latencies are measured
    by the event engine and approximated by the analytic engine.
    ``slo_info`` carries the admission context from the cluster:
    ``num_offered`` / ``num_shed`` / ``offered_span_us`` / ``admission``
    / ``slo_policy``.

    Returns a JSON-serialisable dict: counts, ``shed_rate``,
    ``attainment`` (fraction of deadline-carrying admitted queries that
    met their deadline, ``latency <= slack``; ``None`` when no query
    carries one), and ``goodput_qps`` -- deadline-meeting completions
    per second of offered traffic (all admitted completions count when
    no deadlines are assigned, making goodput degrade gracefully to net
    throughput).  Goodput uses the same interval form ``(N - 1) / span``
    as every other rate in :func:`~repro.serving.queueing.traffic_rates`,
    so it stays comparable to ``offered_qps`` (never exceeding it) and a
    degenerate single completion reports 0 rather than exploding.
    """
    latencies = np.asarray(latencies_us, dtype=np.float64)
    slack = np.asarray(slack_us, dtype=np.float64)
    if slack.shape[0] != latencies.shape[0]:
        raise ValueError("need one latency per admitted query")
    if has_deadline is None:
        has_deadline = ~np.isnan(slack)
    info = dict(slo_info or {})
    num_admitted = latencies.shape[0]
    num_shed = int(info.get("num_shed", 0))
    num_offered = int(info.get("num_offered", num_admitted + num_shed))
    if num_offered < num_admitted + num_shed:
        raise ValueError("offered count below admitted + shed")
    span_us = info.get("offered_span_us")
    if span_us is None:
        span_us = float(arrival_us.max() - arrival_us.min()) \
            if num_admitted else 0.0

    with_deadline = int(np.count_nonzero(has_deadline))
    met = int(np.count_nonzero(
        latencies[has_deadline] <= slack[has_deadline]))
    attainment = met / with_deadline if with_deadline else None
    good = met + (num_admitted - with_deadline)
    goodput_qps = ((good - 1) / span_us * 1e6
                   if good > 1 and span_us > 0.0 else 0.0)
    return {
        "slo_policy": info.get("slo_policy"),
        "admission": info.get("admission", "none"),
        "num_offered": num_offered,
        "num_admitted": num_admitted,
        "num_shed": num_shed,
        "shed_rate": num_shed / num_offered if num_offered else 0.0,
        "num_with_deadline": with_deadline,
        "deadlines_met": met,
        "attainment": attainment,
        "goodput_qps": goodput_qps,
        "offered_span_us": float(span_us),
    }
