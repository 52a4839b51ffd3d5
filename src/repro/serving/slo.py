"""SLO policies and deadline accounting for the serving layer.

The serving engines historically reported *unconditional* latency
percentiles: every query counted the same whether it finished in time or
not.  Production serving is judged differently -- each query carries a
deadline and the system is scored on *goodput* (deadline-meeting
completions per second) and *SLO attainment* (the fraction of admitted
queries that met their deadline).  This module provides:

* :class:`SLOPolicy` -- assigns a deadline to every query of a stream,
  one column at a time (:meth:`SLOPolicy.slack_column`).  Three
  implementations: a fixed per-query budget
  (:class:`FixedSLOPolicy`), a budget scaling with the number of tables a
  query touches (:class:`PerTableSLOPolicy`), and a budget derived from a
  percentile of observed service times
  (:class:`ServicePercentileSLOPolicy`).
* :func:`summarize_slo_arrays` -- the shared deadline bookkeeping both
  serving engines attach to their reports (``extras["slo"]``):
  attainment, goodput, shed rate, and the admission counts.

Deadlines are *absolute* times (``arrival_us + slack``), so a query's
latency meets its SLO exactly when ``complete_us <= deadline_us``.
Deadline assignment is passive: it never changes batching, service times
or the reported percentiles -- admission control
(:mod:`repro.serving.admission`) and the EDF service order
(:class:`~repro.serving.events.EventEngine`) are the active consumers.
"""

import abc

import numpy as np

from repro.serving.arrival import _require_finite
from repro.serving.query_columns import stored_rows
from repro.serving.queueing import percentile


class SLOPolicy(abc.ABC):
    """Strategy interface: assign a completion deadline to each query.

    A policy implements :meth:`slack_column`; deadlines are the arrival
    column plus that slack, computed for a whole chunk at once.
    """

    #: Registry name of the policy (also recorded in report extras).
    name = "slo-policy"

    @abc.abstractmethod
    def slack_column(self, columns):
        """Time budget (us) from arrival to deadline of every row of a
        :class:`~repro.serving.query_columns.QueryColumns`: a float64
        vector, or one scalar shared by every row."""

    def assign_deadlines_columns(self, columns):
        """Replace the columns' deadline column with ``arrival_us +
        slack`` (the step ``ShardedServingCluster.simulate`` runs on each
        chunk) and return the columns.  The old column is not written:
        it may be a read-only zero-stride view, or shared with the
        caller's input."""
        columns.deadline_us = columns.arrival_us \
            + self.slack_column(columns)
        return columns

    def describe(self):
        """Human-readable one-line description of the policy."""
        return self.name


class FixedSLOPolicy(SLOPolicy):
    """Every query gets the same latency budget (the classic p99 SLO)."""

    name = "fixed"

    def __init__(self, slo_us):
        _require_finite(slo_us=slo_us)
        if slo_us <= 0:
            raise ValueError("slo_us must be positive")
        self.slo_us = float(slo_us)

    def slack_column(self, columns):
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
        _require_finite(base_us=base_us, per_table_us=per_table_us)
        if base_us < 0 or per_table_us < 0:
            raise ValueError("budgets must be non-negative")
        if base_us + per_table_us <= 0:
            raise ValueError("the total budget must be positive")
        self.base_us = float(base_us)
        self.per_table_us = float(per_table_us)

    def slack_column(self, columns):
        # num_requests holds the per-query table count (int64 -> float64
        # is exact for any realistic fan-out).
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
        _require_finite(multiplier=multiplier)
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if not np.isfinite(service_times_us).all():
            raise ValueError("service_times_us must be finite")
        reference = percentile(service_times_us, p)
        if reference <= 0:
            raise ValueError("service-time percentile must be positive")
        self.p = float(p)
        self.multiplier = float(multiplier)
        self._slack_us = self.multiplier * reference

    def slack_column(self, columns):
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


def maybe_summarize_slo_arrays(arrival_us, deadline_us, latencies_us,
                               slo_info=None):
    """:func:`summarize_slo_arrays` when the run carries SLO context,
    else None.

    The shared trigger both serving engines use: accounting is attached
    when the cluster passed admission context (``slo_info``) *or* any
    query carries a deadline (assigned by a policy or by hand).
    ``deadline_us`` is the admitted queries' deadline column (NaN = no
    deadline); a run without either context returns before any
    run-sized slack is built, reading one row of a zero-stride column.
    """
    if slo_info is None and np.isnan(stored_rows(deadline_us)).all():
        return None
    return summarize_slo_arrays(arrival_us, deadline_us - arrival_us,
                                latencies_us, slo_info)


def summarize_slo_arrays(arrival_us, slack_us, latencies_us, slo_info=None):
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
