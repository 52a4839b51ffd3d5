"""Execution backends for multi-channel RecNMP simulation.

The per-channel cycle simulations of
:class:`~repro.core.multi_channel.MultiChannelRecNMP` are independent
(disjoint table partitions, per-channel simulators), so *how* they are
executed is a policy separate from *what* they compute.  This module
provides that policy layer:

``serial``
    One channel after another on the calling thread.  The reference
    backend: zero coordination overhead, deterministic, and what the
    process backend must match bit for bit.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` with picklable
    ``(config, address_of, requests)`` work units, so N channels use N
    cores.  Worker-side baseline-cache entries are exported as
    ``(key, result)`` pairs and merged back into the parent's cache
    (:func:`repro.perf.baseline_cache.merge_baseline_entries`), so a
    baseline simulated in a worker is a cache hit for every later
    dispatch on either backend.

Both backends return per-channel
:class:`~repro.core.simulator.RecNMPResult` objects in job order;
their equivalence is pinned by ``tests/test_core_backend.py``.
"""

import abc
import dataclasses
import pickle
from concurrent.futures import ProcessPoolExecutor

from repro.core.simulator import RecNMPSimulator
from repro.perf.baseline_cache import (
    baseline_cache_stats,
    export_baseline_entries,
    merge_baseline_entries,
)


def _preflight_pickle(config, address_of, backend_name):
    """Pickle the worker context up front, naming the offending field.

    The process backend ships ``(config, address_of)`` to worker
    processes; a pickling failure inside a pool worker surfaces as an
    opaque ``BrokenProcessPool``, so the check runs in the parent first
    and the error says *which* input (down to the config field) cannot
    be pickled and what to do about it.
    """
    try:
        pickle.dumps((config, address_of))
    except Exception as error:  # repro-lint: allow-broad-except-audit (preflight probe: any pickling failure becomes the actionable ValueError raised below)
        culprit = "the channel config"
        try:
            pickle.dumps(address_of)
        except Exception:  # repro-lint: allow-broad-except-audit (probing which input fails to pickle; the culprit is named in the raised error)
            culprit = ("the address_of callable %r (module-level functions "
                       "and bound methods of picklable objects work; "
                       "lambdas and closures do not)" % (address_of,))
        else:
            if dataclasses.is_dataclass(config):
                for spec in dataclasses.fields(config):
                    try:
                        pickle.dumps(getattr(config, spec.name))
                    except Exception:  # repro-lint: allow-broad-except-audit (probing which config field fails to pickle; the culprit is named in the raised error)
                        culprit = ("the channel config field %r"
                                   % spec.name)
                        break
        raise ValueError(
            "the %s backend ships work units to worker processes and "
            "needs picklable inputs, but %s is not picklable (%s) -- "
            "use backend='serial' instead"
            % (backend_name, culprit, error)) from error


def _run_channel_job(job):
    """Simulate one channel's request partition (process-pool worker).

    The work unit is fully picklable: the channel :class:`RecNMPConfig`,
    the ``(table_id, row) -> physical address`` callable (a plain function
    or bound method of a picklable object; ``None`` selects the
    simulator's default dense layout), the channel's requests and the
    baseline flag.  Returns the result plus the *new* baseline-cache
    entries this job produced and the worker's hit/miss deltas, so the
    parent can merge them.
    """
    slot, config, address_of, requests, compare_baseline = job
    before_keys = {key for key, _ in export_baseline_entries()}
    stats_before = baseline_cache_stats()
    simulator = RecNMPSimulator(config, address_of=address_of)
    result = simulator.run_requests(requests,
                                    compare_baseline=compare_baseline)
    new_entries = [(key, value) for key, value in export_baseline_entries()
                   if key not in before_keys]
    stats_after = baseline_cache_stats()
    return (slot, result, new_entries,
            stats_after["hits"] - stats_before["hits"],
            stats_after["misses"] - stats_before["misses"])


#: Per-worker cache of node systems built for serving jobs, keyed by the
#: pickled ``(node_system, node_overrides)`` spec.  Registry systems
#: reset per run, so a cached instance answers every later batch of the
#: same cluster without paying system construction again.
_WORKER_NODE_SYSTEMS = {}


def _node_system_for(spec_payload):
    """Build (or fetch the cached) node system for a pickled spec."""
    system = _WORKER_NODE_SYSTEMS.get(spec_payload)
    if system is None:
        from repro.systems.registry import build_system

        name, overrides = pickle.loads(spec_payload)
        system = build_system(name, **overrides)
        _WORKER_NODE_SYSTEMS[spec_payload] = system
    return system


def _preflight_node_spec(node_system, node_overrides, backend_name):
    """Pickle a node spec up front, naming the offending override.

    The node-level serving path rebuilds each node *by registry name* in
    the workers, so only ``(node_system, node_overrides)`` crosses the
    process boundary -- and a bad override must fail here with its name,
    not as an opaque pool error.  Returns the pickled spec payload.
    """
    try:
        return pickle.dumps((node_system, dict(node_overrides)))
    except Exception as error:  # repro-lint: allow-broad-except-audit (preflight probe: any pickling failure becomes the actionable ValueError raised below)
        culprit = "the node spec"
        for key, value in node_overrides.items():
            try:
                pickle.dumps(value)
            except Exception:  # repro-lint: allow-broad-except-audit (probing which override fails to pickle; the culprit is named in the raised error)
                culprit = ("the node override %r (%r; module-level "
                           "functions and bound methods of picklable "
                           "objects work; lambdas and closures do not)"
                           % (key, value))
                break
        raise ValueError(
            "the %s backend rebuilds serving nodes in worker processes "
            "and needs a picklable node spec, but %s is not picklable "
            "(%s) -- use backend='serial' instead"
            % (backend_name, culprit, error)) from error


#: Per-worker cache of rebuilt sweep clusters, keyed by the pickled
#: sweep spec.  A worker serving several points of the same sweep
#: rebuilds the cluster once; its service-time cache then answers
#: compositions repeated across that worker's points.
_WORKER_SWEEP_CLUSTERS = {}

#: Per-worker cache of unpickled sweep parameters (frontend, engine,
#: service model, SLO policy, admission controller), keyed by payload.
_WORKER_SWEEP_PARAMS = {}


def _sweep_cluster_for(spec_payload):
    """Rebuild (or fetch the cached) sweep cluster for a pickled spec."""
    cluster = _WORKER_SWEEP_CLUSTERS.get(spec_payload)
    if cluster is None:
        from repro.serving.cluster import build_sweep_cluster

        cluster = build_sweep_cluster(pickle.loads(spec_payload))
        _WORKER_SWEEP_CLUSTERS[spec_payload] = cluster
    return cluster


def _sweep_params_for(params_payload):
    """Unpickle (or fetch the cached) shared sweep parameters."""
    params = _WORKER_SWEEP_PARAMS.get(params_payload)
    if params is None:
        params = pickle.loads(params_payload)
        _WORKER_SWEEP_PARAMS[params_payload] = params
    return params


def _preflight_sweep_pickle(value, backend_name, what):
    """Pickle a sweep input up front with an actionable error."""
    try:
        return pickle.dumps(value)
    except Exception as error:  # repro-lint: allow-broad-except-audit (preflight probe: re-raised as an actionable ValueError naming the sweep input)
        raise ValueError(
            "the %s backend runs sweep points in worker processes and "
            "needs %s to be picklable (%s) -- run the sweep with "
            "backend='serial' instead" % (backend_name, what,
                                          error)) from error


def _run_sweep_point(job):
    """Simulate one QPS point on a worker-local cluster rebuild.

    The cluster is rebuilt from the pickled sweep spec (cached per
    worker) and the shared simulate parameters come from their own
    cached payload.  ``simulate`` resets routing state per run, so a
    point's report is a pure function of its query stream -- identical
    whether it runs here or in the parent.  Returns the report plus the
    *new* service-cache entries and counter deltas this point produced
    (and the baseline-cache deltas, as every process job does) so
    the parent can merge them.
    """
    slot, spec_payload, params_payload, queries = job
    cluster = _sweep_cluster_for(spec_payload)
    frontend, engine, model, slo_policy, admission = \
        _sweep_params_for(params_payload)
    before = cluster.export_service_state()
    before_keys = {key for key, _ in before["entries"]}
    baseline_before_keys = {key for key, _ in export_baseline_entries()}
    baseline_before = baseline_cache_stats()
    report = cluster.simulate(queries, frontend=frontend, engine=engine,
                              service_model=model, slo_policy=slo_policy,
                              admission=admission)
    after = cluster.export_service_state()
    delta = {
        "entries": [(key, value) for key, value in after["entries"]
                    if key not in before_keys],
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "exact_simulations": (after["exact_simulations"]
                              - before["exact_simulations"]),
        "dedup_hits": after["dedup_hits"] - before["dedup_hits"],
    }
    for counter in ("store_hits", "store_misses", "store_puts"):
        if counter in after:
            delta[counter] = after[counter] - before.get(counter, 0)
    baseline_entries = [(key, value)
                        for key, value in export_baseline_entries()
                        if key not in baseline_before_keys]
    baseline_after = baseline_cache_stats()
    return (slot, report, delta, baseline_entries,
            baseline_after["hits"] - baseline_before["hits"],
            baseline_after["misses"] - baseline_before["misses"])


def _run_node_job(job):
    """Node-level serving job: one node's shard of one batch.

    The node system is rebuilt from the registry spec (cached per worker
    by spec payload) and the shard's service time returned together with
    the worker's new baseline-cache entries, mirroring
    :func:`_run_channel_job`.
    """
    slot, spec_payload, shard = job
    system = _node_system_for(spec_payload)
    before_keys = {key for key, _ in export_baseline_entries()}
    stats_before = baseline_cache_stats()
    service_us = system.service_time_us(shard)
    new_entries = [(key, value) for key, value in export_baseline_entries()
                   if key not in before_keys]
    stats_after = baseline_cache_stats()
    return (slot, service_us, new_entries,
            stats_after["hits"] - stats_before["hits"],
            stats_after["misses"] - stats_before["misses"])


class ParallelBackend(abc.ABC):
    """How the independent per-channel simulations are executed.

    Parameters
    ----------
    max_workers:
        Upper bound on concurrent workers; ``None`` defaults to one per
        busy channel.
    """

    #: Registry name (``"serial"`` / ``"process"``).
    name = "parallel-backend"

    def __init__(self, max_workers=None):
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers

    @abc.abstractmethod
    def run_channels(self, coordinator, jobs, compare_baseline):
        """Execute ``jobs`` (``(slot, simulator, requests)`` triples).

        Returns the per-channel results in job order.
        """

    def run_service_jobs(self, cluster, jobs):
        """Execute node-level serving jobs (``(slot, node, shard)``).

        One job is one serving node's shard of one batch; the return
        value is the per-job service time in microseconds, in job
        order.  The default runs the cluster's own (in-process) node
        systems serially; the process backend rebuilds the nodes from
        ``cluster.node_system``/``cluster.node_overrides`` in its workers
        (cached per worker by spec) so the per-node simulations of one
        batch use real cores.
        """
        return [node.service_time_us(shard) for _, node, shard in jobs]

    def run_sweep_points(self, cluster, point_queries, frontend=None,
                         engine=None, service_model=None, slo_policy=None,
                         admission=None):
        """Simulate one QPS sweep point per query stream, in order.

        ``point_queries`` holds the materialised query stream of every
        sweep point.  Points are independent given fresh routing state
        (``simulate`` resets it per run), so the process backend fans
        them out to worker-side cluster rebuilds and merges each
        worker's service-time cache/store deltas back into ``cluster``,
        exactly like the baseline-cache merge of the channel jobs.
        Reports are bit-identical to this default, the serial loop on
        the cluster itself.
        """
        return [cluster.simulate(queries, frontend=frontend, engine=engine,
                                 service_model=service_model,
                                 slo_policy=slo_policy, admission=admission)
                for queries in point_queries]

    def shutdown(self):
        """Release any pooled workers (idempotent)."""

    def __enter__(self):
        """Backends are context managers: exit releases pooled workers."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.shutdown()
        return False

    def describe(self):
        if self.max_workers is None:
            return self.name
        return "%s(max_workers=%d)" % (self.name, self.max_workers)


class SerialBackend(ParallelBackend):
    """Run the channels one after another on the calling thread."""

    name = "serial"

    def run_channels(self, coordinator, jobs, compare_baseline):
        return [simulator.run_requests(requests,
                                       compare_baseline=compare_baseline)
                for _, simulator, requests in jobs]


class ProcessBackend(ParallelBackend):
    """Run the channels on a process pool (true multi-core execution).

    Work units are rebuilt in the workers from the picklable channel
    config and address map, so each dispatch runs on *fresh* channel
    simulators -- the contract of the registry systems, which reset
    per run; a coordinator that relies on channel state accumulating
    across ``run_requests`` calls must use ``serial``.  The
    pool is created lazily and kept alive across dispatches (amortising
    worker start-up); call :meth:`shutdown` (or
    ``MultiChannelRecNMP.close``) for deterministic cleanup.
    """

    name = "process"

    def __init__(self, max_workers=None):
        super().__init__(max_workers=max_workers)
        self._pool = None
        self._pool_workers = 0

    def _ensure_pool(self, wanted):
        if self.max_workers is not None:
            wanted = min(wanted, self.max_workers)
        wanted = max(1, wanted)
        if self._pool is not None and self._pool_workers < wanted:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=wanted)
            self._pool_workers = wanted
        return self._pool

    def run_channels(self, coordinator, jobs, compare_baseline):
        config = coordinator.channel_config
        address_of = coordinator.address_of
        _preflight_pickle(config, address_of, self.name)
        pool = self._ensure_pool(len(jobs))
        futures = [pool.submit(_run_channel_job,
                               (slot, config, address_of, requests,
                                compare_baseline))
                   for slot, _, requests in jobs]
        return self._collect_results(futures)

    def run_service_jobs(self, cluster, jobs):
        spec_payload = _preflight_node_spec(cluster.node_system,
                                            cluster.node_overrides,
                                            self.name)
        pool = self._ensure_pool(len(jobs))
        futures = [pool.submit(_run_node_job, (slot, spec_payload, shard))
                   for slot, _, shard in jobs]
        return self._collect_results(futures)

    def run_sweep_points(self, cluster, point_queries, frontend=None,
                         engine=None, service_model=None, slo_policy=None,
                         admission=None):
        """Fan the sweep points out to worker processes, one per point.

        Workers rebuild the cluster from its picklable sweep spec
        (cached per worker, so several points in one worker share a
        rebuild and its service cache) and receive the simulate
        parameters through one shared payload.  Each point's query
        stream is pickled into its job; the worker's report comes back
        with its service-cache and baseline-cache deltas, which are
        merged into the parent in point order -- statistics cover the
        whole sweep and later runs on any backend hit what the workers
        simulated.
        """
        if len(point_queries) <= 1:
            return ParallelBackend.run_sweep_points(
                self, cluster, point_queries, frontend=frontend,
                engine=engine, service_model=service_model,
                slo_policy=slo_policy, admission=admission)
        spec_payload = _preflight_sweep_pickle(
            cluster.sweep_spec(), self.name, "the cluster's sweep spec")
        params_payload = _preflight_sweep_pickle(
            (frontend, engine, service_model, slo_policy, admission),
            self.name, "the sweep parameters (frontend, engine, service "
            "model, SLO policy, admission controller)")
        pool = self._ensure_pool(len(point_queries))
        futures = [pool.submit(_run_sweep_point,
                               (slot, spec_payload, params_payload, queries))
                   for slot, queries in enumerate(point_queries)]
        reports = [None] * len(futures)
        baseline_merged = {}
        baseline_hits = baseline_misses = 0
        for position, future in enumerate(futures):
            (_, report, delta, baseline_entries,
             job_hits, job_misses) = future.result()
            reports[position] = report
            cluster.merge_service_state(delta)
            baseline_merged.update(baseline_entries)
            baseline_hits += job_hits
            baseline_misses += job_misses
        if baseline_merged or baseline_hits or baseline_misses:
            merge_baseline_entries(baseline_merged.items(),
                                   hits=baseline_hits,
                                   misses=baseline_misses)
        return reports

    def _collect_results(self, futures):
        """Gather job results in order, merging baseline-cache deltas."""
        results = [None] * len(futures)
        merged = {}
        hits = 0
        misses = 0
        for position, future in enumerate(futures):
            _, result, entries, job_hits, job_misses = future.result()
            results[position] = result
            merged.update(entries)
            hits += job_hits
            misses += job_misses
        if merged or hits or misses:
            merge_baseline_entries(merged.items(), hits=hits, misses=misses)
        return results

    def shutdown(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_workers = 0


#: Backend registry: name -> class.
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def resolve_backend(backend, max_workers=None):
    """Normalise a ``backend=`` argument into a backend instance.

    Accepts ``None`` (the serial default -- the reference, bit-identical
    to the process backend), a registry name, a :class:`ParallelBackend`
    subclass, or a ready instance (returned as-is; ``max_workers`` must
    then be unset -- the instance already carries its bound).
    """
    if isinstance(backend, ParallelBackend):
        if max_workers is not None:
            raise ValueError("pass max_workers to the backend constructor, "
                             "not alongside a ready backend instance")
        return backend
    if backend is None:
        return SerialBackend(max_workers=max_workers)
    if isinstance(backend, type) and issubclass(backend, ParallelBackend):
        return backend(max_workers=max_workers)
    try:
        cls = BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError("unknown backend %r; available: %s"
                         % (backend, ", ".join(sorted(BACKENDS)))) from None
    return cls(max_workers=max_workers)
