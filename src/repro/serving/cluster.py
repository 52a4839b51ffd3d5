"""Sharded serving cluster: traffic in, latency percentiles out.

Ties the serving pieces together: an arrival process produces queries, the
batching frontend groups them, the table sharder fans each batch out to N
embedding-system nodes (built by name through :mod:`repro.systems`), the
slowest shard sets the batch service time, and a pluggable
:class:`~repro.serving.engine.ServingEngine` converts the per-batch
service times into p50/p95/p99 latency and a sustainable-QPS figure --
either the closed-form M/G/c model (``engine="analytic"``, the default)
or a discrete-event simulation of the dispatch queue
(``engine="event"``, or ``"event-edf"`` for earliest-deadline-first
dispatch).  Per-batch service times come from a
:class:`~repro.perf.service_model.ServiceTimeModel`: exact cycle
simulation per batch composition, or interpolation from a calibrated
grid for long event-driven runs.

The SLO layer threads through the same entry point: ``simulate(...,
slo_policy=..., admission=...)`` assigns per-query deadlines
(:mod:`repro.serving.slo`) and places an admission controller in front
of the batcher (:mod:`repro.serving.admission`), reporting goodput, SLO
attainment and shed rate in ``extras["slo"]``.
"""

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import observe_finite as _observe_finite
from repro.perf.service_store import (
    ServiceTimeStore,
    resolve_service_store,
    stable_fingerprint,
)
from repro.serving.admission import resolve_admission
from repro.serving.batcher import BatchingFrontend
from repro.serving.engine import resolve_engine
from repro.serving.sharding import (
    ReplicatedTableSharder,
    TableSharder,
    partition_by_assignment,
)
from repro.systems.registry import build_system
from repro.utils.lru import LRUCache

#: Default bound on the per-cluster batch service-time cache.  Long trace
#: replays stream millions of distinct batch compositions through a
#: cluster; an unbounded cache would retain every one of them.
DEFAULT_SERVICE_CACHE_ENTRIES = 4096

#: Default queries per chunk when ``simulate`` drains a
#: :class:`~repro.serving.query_columns.QueryStream` without an explicit
#: ``stream_chunk``: large enough to amortise the per-chunk passes, small
#: enough that a 10M-query run never materialises the stream.
DEFAULT_STREAM_CHUNK = 65536


class ShardedServingCluster:
    """N embedding-system nodes serving batched, sharded traffic.

    Parameters
    ----------
    num_nodes:
        Serving nodes; embedding tables are sharded across them.
    node_system:
        Registry name of the per-node embedding system (e.g.
        ``"recnmp-opt-4ch"`` for the paper's four-channel server).
    sharder:
        A :class:`TableSharder` or
        :class:`~repro.serving.sharding.ReplicatedTableSharder`; defaults
        to round-robin over the nodes.
    shard_policy:
        Convenience alternative to ``sharder``: build a default
        :class:`TableSharder` with this policy (``"round-robin"`` /
        ``"hash"``).  ``"load-aware"`` placement and replication need
        trace statistics, so they must come in as a ready
        ``ReplicatedTableSharder`` via ``sharder=``.
    num_frontends:
        Concurrent dispatch servers draining the batch queue.  Every
        engine models the queue as ``num_frontends`` identical servers
        (Erlang-C analytically, actual concurrent service in the event
        engine).
    service_cache_entries:
        LRU bound on the memoised per-batch service times.
    backend, jobs:
        *Node-level* execution backend (``"serial"`` / ``"process"`` or
        a ready :class:`~repro.core.backend.ParallelBackend`) and its
        worker bound: the per-node shard simulations of one batch fan
        out through it, so ``jobs`` governs the total worker slots of
        the cluster.  The process backend rebuilds each node from its
        registry spec in its workers (cached per worker), which
        keeps every node's channels serial unless ``channel_backend``
        says otherwise.  Results are bit-identical across backends; the
        per-batch memoisation stays in this (parent) process.
    channel_backend, channel_jobs:
        Within-node channel backend, forwarded to ``build_system`` as
        ``backend=``/``max_workers=`` -- the pre-node-parallelism knob.
        Nesting process pools inside process-backend workers is
        possible but rarely useful; pick one level.
    service_store:
        Optional persistent tier beneath the in-memory service-time
        cache (:mod:`repro.perf.service_store`): ``None`` (the default)
        keeps everything in memory, a path or ``"default"`` opens a
        sqlite store so batch service times survive process restarts,
        keyed by the cluster's configuration fingerprint, the active
        kernel flavor and the batch content.  A ready
        :class:`~repro.perf.service_store.ServiceTimeStore` is shared
        (and left open on ``close``); stores this cluster opened itself
        are closed with it.
    node_overrides:
        Keyword overrides forwarded to ``build_system`` for every node.
        ``compare_baseline`` defaults to False here: serving only needs the
        system's own latency, not its host-DDR4 normalisation.
    """

    def __init__(self, num_nodes=2, node_system="recnmp-opt-4ch",
                 sharder=None, shard_policy=None, num_frontends=1,
                 service_cache_entries=DEFAULT_SERVICE_CACHE_ENTRIES,
                 backend=None, jobs=None, channel_backend=None,
                 channel_jobs=None, service_store=None, **node_overrides):
        from repro.core.backend import resolve_backend

        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if num_frontends <= 0:
            raise ValueError("num_frontends must be positive")
        if channel_backend is not None:
            node_overrides.setdefault("backend", channel_backend)
        if channel_jobs is not None:
            node_overrides.setdefault("max_workers", channel_jobs)
        if sharder is not None and shard_policy is not None:
            raise ValueError("pass either sharder or shard_policy, "
                             "not both")
        if sharder is None:
            policy = shard_policy or "round-robin"
            if policy not in TableSharder.POLICIES:
                if policy not in ReplicatedTableSharder.POLICIES:
                    raise ValueError(
                        "unknown shard policy %r; available: %s"
                        % (policy,
                           ", ".join(ReplicatedTableSharder.POLICIES)))
                raise ValueError(
                    "shard policy %r needs table-load statistics; build a "
                    "ReplicatedTableSharder (e.g. from_traces/from_queries)"
                    " and pass it via sharder=" % (policy,))
            sharder = TableSharder(num_nodes, policy=policy)
        node_overrides.setdefault("compare_baseline", False)
        self.num_nodes = int(num_nodes)
        self.node_system = node_system
        #: The per-node ``build_system`` overrides; the process-family
        #: node-level backends ship ``(node_system, node_overrides)`` to
        #: their workers to rebuild the nodes there.
        self.node_overrides = dict(node_overrides)
        self.num_frontends = int(num_frontends)
        self.sharder = sharder
        if self.sharder.num_nodes != self.num_nodes:
            raise ValueError("sharder is sized for %d nodes, cluster has %d"
                             % (self.sharder.num_nodes, self.num_nodes))
        self.backend = resolve_backend(backend, max_workers=jobs)
        self.nodes = [build_system(node_system, **node_overrides)
                      for _ in range(self.num_nodes)]
        self._service_cache = LRUCache(max_entries=service_cache_entries)
        # A ready store is shared infrastructure; one resolved from a
        # path/"default" belongs to this cluster and is closed with it.
        self._owns_store = not isinstance(service_store, ServiceTimeStore)
        self.service_store = resolve_service_store(service_store)
        self._config_fp = None
        #: The cluster's metrics registry (:mod:`repro.obs.metrics`).
        #: The simulation counters live here -- ``service_stats`` /
        #: ``export_service_state`` / ``reset`` are compatibility views
        #: over it -- and the cache/store tiers publish through
        #: snapshot-time collectors, so the hot path never copies a
        #: stat dict.
        self.metrics = MetricsRegistry()
        self._exact_sim_counter = self.metrics.counter(
            "serving.exact_simulations",
            help="batch compositions actually cycle-simulated")
        self._dedup_counter = self.metrics.counter(
            "serving.dedup_hits",
            help="duplicate in-flight batches collapsed by batched "
                 "resolution")
        self.metrics.register_collector("service_cache",
                                        self._service_cache.stats)
        if self.service_store is not None:
            self.metrics.register_collector("service_store",
                                            self.service_store.stats)

    # ------------------------------------------------------------------ #
    def _batch_key(self, batch, requests):
        """Content key of a batch, advancing stateful routing.

        Returns ``(key, assignment)``: the service-cache key and, for
        stateful sharders, the (committed) per-request node assignment
        the key embeds.  Stateless sharders return ``assignment=None``
        -- their assignment is a pure function of content, so a cache
        hit needs no assignment pass at all.
        """
        # Batch-level digests from the provider's residue memo.
        key = tuple(batch.query_fingerprints())
        if self.sharder.stateful:
            # Routing state must advance for every batch, cached or not,
            # and the assignment is part of the key.
            assignment = self.sharder.assign_requests(requests)
            return (key, tuple(assignment)), assignment
        return key, None

    def _batch_jobs(self, base_slot, batch, requests, assignment):
        """Per-node ``(slot, node, shard)`` jobs of one batch."""
        if assignment is None:
            assignment = self.sharder.assign_requests(requests)
        partitions = partition_by_assignment(requests, assignment,
                                             self.num_nodes)
        jobs = [(base_slot + index, node, shard)
                for index, (node, shard)
                in enumerate(zip(self.nodes, partitions)) if shard]
        if not jobs:
            raise ValueError("batch dispatched no requests to any node")
        return jobs

    def config_fingerprint(self):
        """Stable digest of everything that shapes a batch service time.

        The persistent service store's namespace key: node system, node
        count, build overrides and the sharder's placement all change
        what a batch costs, so they are all in the digest.  Stateful
        sharders additionally embed the per-request assignment in each
        batch key, so two runs only share stored entries when placement
        *and* routing agree.
        """
        if self._config_fp is None:
            sharder = self.sharder
            sharder_parts = [type(sharder).__name__, sharder.num_nodes,
                             sharder.policy]
            replicas = getattr(sharder, "replicas", None)
            if replicas is not None:
                sharder_parts += [sorted(replicas.items()),
                                  getattr(sharder, "seed", None),
                                  getattr(sharder,
                                          "request_overhead_lookups", None)]
            self._config_fp = stable_fingerprint(
                ("service-config", self.node_system, self.num_nodes,
                 self.node_overrides, tuple(sharder_parts)))
        return self._config_fp

    def service_time_us(self, batch):
        """Simulated execution time of one batch on the sharded cluster.

        The single-batch entry point of :meth:`service_times_us`; see
        there for the caching and dispatch semantics.
        """
        return self.service_times_us([batch])[0]

    def service_times_us(self, batches):
        """Service times of a batch list, deduplicated and backend-fanned.

        Each batch's SLS requests are partitioned by table placement;
        every node executes its shard and the batch completes when the
        slowest shard does.  Results are memoised by batch *content*
        (the queries' lookup fingerprints, not their ids or arrival
        times) in a bounded LRU, with the optional persistent store as a
        second tier beneath it, so runs that re-batch the same queries
        only simulate new compositions while different workloads never
        collide.  With a *stateful* sharder (replication routes by
        running load counters) the same content can land on different
        nodes over time, so the cache key also carries the per-request
        node assignment -- routing state always advances, cached or not.

        The whole list is fingerprinted up front: repeated compositions
        collapse onto one pending simulation, cache/store hits are
        answered in place, and only the *unique misses* fan out through
        the node-level backend as one flat job list -- so a parallel
        backend overlaps the shards of different batches instead of
        blocking on each batch in turn.  Keys are computed in list
        order, simulations are deterministic, and the per-batch result
        is the max over its own shards, so the returned vector is
        bit-identical to resolving the batches one at a time.
        """
        batches = list(batches)
        keyed = []
        for batch in batches:
            requests = batch.requests()
            key, assignment = self._batch_key(batch, requests)
            keyed.append((batch, requests, key, assignment))
        results = [None] * len(batches)
        pending = {}                    # key -> [batch indices]
        dedup_hits = 0
        for index, (batch, requests, key, assignment) in enumerate(keyed):
            if key in pending:
                # Duplicate of an in-flight miss: one simulation serves
                # every occurrence (a hit on the one-at-a-time path).
                pending[key].append(index)
                dedup_hits += 1
                continue
            cached = self._service_cache.get(key)
            if cached is not None:
                results[index] = cached
                continue
            if self.service_store is not None:
                stored = self.service_store.get(self.config_fingerprint(),
                                                key)
                if stored is not None:
                    self._service_cache.put(key, stored)
                    results[index] = stored
                    continue
            pending[key] = [index]
        # One flat job list over every unique miss: the busy nodes' shard
        # simulations of *all* pending batches fan out through the
        # cluster's node-level backend together.
        flat_jobs, spans = [], []
        for key, indices in pending.items():
            batch, requests, _, assignment = keyed[indices[0]]
            jobs = self._batch_jobs(len(flat_jobs), batch, requests,
                                    assignment)
            spans.append((key, len(flat_jobs), len(jobs)))
            flat_jobs.extend(jobs)
        if flat_jobs:
            times = self.backend.run_service_jobs(self, flat_jobs)
            self._exact_sim_counter.inc(len(spans))
            stored_pairs = []
            for key, start, count in spans:
                # The batch completes with its slowest shard.
                latency_us = max(times[start:start + count])
                if latency_us <= 0.0:
                    raise ValueError(
                        "batch dispatched no requests to any node")
                self._service_cache.put(key, latency_us)
                stored_pairs.append((key, latency_us))
                for index in pending[key]:
                    results[index] = latency_us
            if self.service_store is not None:
                self.service_store.put_many(self.config_fingerprint(),
                                            stored_pairs)
        if dedup_hits:
            # Count collapsed duplicates as cache hits: that is what the
            # one-at-a-time path would have recorded for them.
            self._service_cache.merge_entries([], hits=dedup_hits)
            self._dedup_counter.inc(dedup_hits)
        return results

    def service_stats(self):
        """Cache, store and simulation accounting for this cluster.

        ``cache`` is the in-memory LRU snapshot, ``exact_simulations``
        the number of batch compositions actually simulated,
        ``dedup_hits`` the duplicates collapsed by batched resolution,
        and ``store`` (present when a persistent store is attached) the
        disk tier's hit/miss/put counters.
        """
        stats = {"cache": self._service_cache.stats(),
                 "exact_simulations": self._exact_sim_counter.value,
                 "dedup_hits": self._dedup_counter.value}
        if self.service_store is not None:
            stats["store"] = self.service_store.stats()
        return stats

    def export_service_state(self):
        """Snapshot of cache entries and counters for a sweep merge.

        A sweep worker process runs its points on its own cluster
        rebuild; the parent folds the worker's service-time entries and
        counter deltas back with :meth:`merge_service_state`, exactly
        like the baseline-cache merge of the channel jobs.
        """
        cache = self._service_cache.stats()
        state = {"entries": self._service_cache.export_entries(),
                 "hits": cache["hits"],
                 "misses": cache["misses"],
                 "exact_simulations": self._exact_sim_counter.value,
                 "dedup_hits": self._dedup_counter.value}
        if self.service_store is not None:
            store = self.service_store.stats()
            state["store_hits"] = store["hits"]
            state["store_misses"] = store["misses"]
            state["store_puts"] = store["puts"]
        return state

    def merge_service_state(self, state):
        """Fold a worker's :meth:`export_service_state` into this cluster."""
        self._service_cache.merge_entries(state["entries"],
                                          hits=state["hits"],
                                          misses=state["misses"])
        self._exact_sim_counter.inc(state["exact_simulations"])
        self._dedup_counter.inc(state["dedup_hits"])
        if self.service_store is not None:
            self.service_store.merge_counters(
                hits=state.get("store_hits", 0),
                misses=state.get("store_misses", 0),
                puts=state.get("store_puts", 0))

    def sweep_spec(self):
        """Picklable recipe for an equivalent cluster in a sweep worker.

        Captures the node build, frontends, cache bound, sharder and the
        store *path* (workers open their own connection); the worker's
        node-level backend stays serial -- one process per sweep point
        is the parallelism level, nesting pools under it buys nothing.
        """
        return {
            "num_nodes": self.num_nodes,
            "node_system": self.node_system,
            "node_overrides": dict(self.node_overrides),
            "num_frontends": self.num_frontends,
            "service_cache_entries": self._service_cache.max_entries,
            "sharder": self.sharder,
            "service_store": None if self.service_store is None
            else str(self.service_store.path),
        }

    def reset(self):
        """Reset every node, the memoised service times and the routing.

        Every metric in the cluster's registry resets with it -- the
        simulation counters (``exact_simulations``, ``dedup_hits``) and
        any per-run histograms/gauges published under ``metrics=True``
        zero together, while the cache/store *collectors* keep
        reporting whatever their components say (the cache was just
        cleared; the persistent store is deliberately left alone --
        surviving resets and process restarts is its purpose; use
        ``service_store.invalidate()`` to drop stored entries).
        """
        for node in self.nodes:
            node.reset()
        if self.sharder.stateful:
            self.sharder.reset_routing()
        self._service_cache.clear()
        self.metrics.reset()

    def close(self):
        """Release the node-level backend and every node's own workers."""
        self.backend.shutdown()
        for node in self.nodes:
            close = getattr(node, "close", None)
            if close is not None:
                close()
        if self.service_store is not None and self._owns_store:
            self.service_store.close()

    def __enter__(self):
        """Clusters are context managers: exit releases pooled workers."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    # ------------------------------------------------------------------ #
    def estimate_query_service_us(self, queries, frontend=None,
                                  service_model=None):
        """Estimated marginal per-query service cost in a full batch.

        Simulates one probe batch of the first ``frontend.max_queries``
        queries (arrival order) through ``service_model`` and divides by
        its size -- the per-query cost at the batch sizes the frontend
        actually dispatches, which is the unit the admission layer's
        fluid backlog model deposits per admitted query.  Memoised like
        any other batch, so the probe is free when the same composition
        recurs in the run.  Stateful sharders route the probe from
        *fresh* routing state, so the estimate is a pure function of the
        queries -- independent of whatever ran on the cluster before.
        """
        from repro.perf.service_model import resolve_service_model
        from repro.serving.query_columns import BatchColumns, QueryColumns

        if not len(queries):
            raise ValueError("need at least one query to estimate from")
        if self.sharder.stateful:
            self.sharder.reset_routing()
        frontend = frontend or BatchingFrontend()
        model = resolve_service_model(service_model)
        if not isinstance(queries, QueryColumns):
            queries = QueryColumns.from_queries(queries)
        columns = queries.sorted_by_arrival()
        count = min(len(columns), frontend.max_queries)
        open_us = columns.arrival_us[:1]
        batch = BatchColumns(columns.slice(0, count), [0], open_us, open_us,
                             [0])
        return model.service_times_us(self, batch)[0] / count

    def simulate(self, queries, frontend=None, engine=None,
                 service_model=None, slo_policy=None, admission=None,
                 stream_chunk=None, trace=None, metrics=None):
        """Serve a query stream; returns a
        :class:`~repro.serving.queueing.ServingReport`.

        ``engine`` selects the queueing model (``"analytic"`` /
        ``"event"`` / ``"event-edf"`` / a :class:`ServingEngine`
        instance; default analytic).  ``service_model`` selects how
        per-batch service times are obtained (``"exact"`` / a
        :class:`~repro.perf.service_model.ServiceTimeModel` instance;
        default exact).  ``slo_policy`` assigns per-query deadlines
        before anything else runs (``None`` / a number of microseconds /
        an :class:`~repro.serving.slo.SLOPolicy`), and ``admission``
        places an admission controller in front of the batcher (``None``
        for no admission stage, a registered name such as
        ``"token-bucket"`` or ``"deadline"``, or an
        :class:`~repro.serving.admission.AdmissionController`).  Both
        decide over columns: the policy sets each chunk's deadline
        column, and the controller answers one ``admit_mask`` call per
        chunk from a state it started with ``new_state``.  Shed
        queries never enter a batch, and the report's percentiles are
        conditioned on the admitted stream with the shed/goodput
        accounting in ``extras["slo"]``.  Every run starts from fresh
        routing state (stateful sharders reset their replica counters),
        so a report is a pure function of the query stream -- repeated
        ``simulate`` calls and reordered ``qps_sweep`` points agree.

        ``queries`` is a list of
        :class:`~repro.serving.arrival.ServingQuery` objects, a
        :class:`~repro.serving.query_columns.QueryColumns` or a
        :class:`~repro.serving.query_columns.QueryStream`.  All three
        run one array pipeline (a list is converted once by
        ``QueryColumns.from_queries``) and give the same report for the
        same queries.  ``simulate`` never mutates its input: a policy's
        deadlines replace each chunk's own deadline column, so a later run
        without ``slo_policy`` reports no SLO accounting.  Deadlines
        already on the input (``ServingQuery.deadline_us`` set by hand,
        or the ``deadline_us`` column) are honoured when no policy
        replaces them.  ``stream_chunk`` (valid for any query source)
        processes the run in chunks of that many queries with carried
        batcher, sharder and admission state -- O(chunk) memory for
        streams of any length, byte-identical to the one-shot run.  A
        ``QueryStream`` without an explicit ``stream_chunk`` uses
        ``DEFAULT_STREAM_CHUNK``.

        ``trace`` / ``metrics`` switch on the observability layer
        (:mod:`repro.obs`): pass a fresh
        :class:`~repro.obs.tracing.Tracer` as ``trace=`` to get the
        run's reconstructed per-query lifecycle spans and sim-time
        series (exportable as Perfetto-loadable Chrome trace JSON), and
        ``metrics=True`` (the cluster's own :attr:`metrics` registry)
        or a ready :class:`~repro.obs.metrics.MetricsRegistry` to
        publish per-run latency histograms, counters and gauges.  Both
        default off and are *guaranteed non-perturbing*: the engines
        deposit arrays they already computed after the queue maths, so
        the returned report is byte-identical with tracing on or off
        (the report object itself never carries the tracer).
        """
        from repro.perf.service_model import resolve_service_model
        from repro.serving.query_columns import (
            BatchColumns,
            QueryColumns,
            QueryStream,
        )
        from repro.serving.slo import resolve_slo_policy

        frontend = frontend or BatchingFrontend()
        engine = resolve_engine(engine)
        model = resolve_service_model(service_model)
        policy = resolve_slo_policy(slo_policy)
        controller = resolve_admission(admission)
        tracer, registry, capture = \
            self._resolve_observability(trace, metrics)
        if stream_chunk is not None:
            stream_chunk = int(stream_chunk)
            if stream_chunk < frontend.max_queries:
                raise ValueError(
                    "stream_chunk must be >= the frontend's max_queries "
                    "(%d)" % frontend.max_queries)
        elif isinstance(queries, QueryStream):
            stream_chunk = DEFAULT_STREAM_CHUNK

        # Chunks flow through deadline assignment, admission, batching
        # and service-time resolution with carried state between chunks
        # (the admission fluid model, the batcher's open batch, the
        # sharder's routing counters), then a single engine.summarize
        # sees the whole run -- so the report is byte-identical whatever
        # the chunk size, including the one-shot stream_chunk=None.
        est_query_us = est_batch_us = None
        admission_state = None
        num_offered = 0
        num_admitted = 0
        first_arrival = None
        last_arrival = None
        carry = None
        batch_parts = []
        services = []
        shed_id_parts = []
        shed_arrival_parts = []
        routing_reset = False
        for chunk, is_final in _column_chunks(queries, stream_chunk):
            num_offered += len(chunk)
            if first_arrival is None:
                first_arrival = float(chunk.arrival_us[0])
            last_arrival = float(chunk.arrival_us[-1])
            if policy is not None:
                policy.assign_deadlines_columns(chunk)
            if controller is not None and est_query_us is None:
                # Probe on the first chunk: chunking is monotone in
                # arrival order, so it holds the globally earliest
                # queries -- all the whole-stream estimate ever reads.
                est_query_us = self.estimate_query_service_us(
                    chunk, frontend=frontend, service_model=model)
                est_batch_us = est_query_us * frontend.max_queries
                admission_state = controller.new_state(first_arrival)
            if not routing_reset:
                # After the probe (which advances stateful routing),
                # before the first real batch.
                if self.sharder.stateful:
                    self.sharder.reset_routing()
                routing_reset = True
            if controller is None:
                admitted = chunk
                num_admitted += len(chunk)
            else:
                mask = np.asarray(controller.admit_mask(
                    chunk.arrival_us, chunk.deadline_us - chunk.arrival_us,
                    admission_state, self.num_frontends, est_query_us,
                    est_batch_us), dtype=bool)
                if mask.shape != chunk.arrival_us.shape:
                    raise ValueError(
                        "admission controller %r returned %d flags for "
                        "%d queries" % (controller.describe(), mask.size,
                                        len(chunk)))
                admitted = chunk if mask.all() \
                    else chunk.take(np.flatnonzero(mask))
                num_admitted += len(admitted)
                if capture is not None and len(admitted) != len(chunk):
                    dropped = np.flatnonzero(~mask)
                    shed_id_parts.append(chunk.query_id[dropped].copy())
                    shed_arrival_parts.append(
                        chunk.arrival_us[dropped].copy())
            piece = admitted
            if carry is not None:
                piece = QueryColumns.concat([carry, piece]) \
                    if len(piece) else carry
                carry = None
            if not len(piece):
                continue
            formed, carry = frontend.form_batch_columns(piece,
                                                        final=is_final)
            if len(formed):
                batch_parts.append(formed)
                times = model.service_times_us(self, formed)
                _require_valid_service_times(model, times, len(services))
                services.extend(times)
        if controller is not None and num_offered and not num_admitted:
            raise ValueError(
                "admission controller %r shed every query; offered "
                "load is far beyond capacity or the controller is "
                "misconfigured" % controller.describe())
        slo_info = None
        if policy is not None or controller is not None:
            slo_info = {
                "num_offered": num_offered,
                "num_shed": num_offered - num_admitted,
                "offered_span_us": (last_arrival - first_arrival)
                if num_offered else 0.0,
                "admission": controller.name if controller is not None
                else "none",
                "slo_policy": policy.describe() if policy is not None
                else None,
            }
        if not batch_parts:
            raise ValueError("need at least one batch")
        batches = BatchColumns.concat(batch_parts)
        report = engine.summarize(
            self.describe(), batches, services,
            num_servers=self.num_frontends,
            trigger_counts=frontend.trigger_counts(batches),
            extras={"num_nodes": self.num_nodes,
                    "node_system": self.node_system,
                    "shard_policy": self.sharder.policy,
                    "sharder": self.sharder.describe(),
                    "service_model": model.name},
            slo_info=slo_info, capture=capture)
        if capture is not None:
            shed_ids = np.concatenate(shed_id_parts) if shed_id_parts \
                else np.empty(0, dtype=np.int64)
            shed_arrivals = np.concatenate(shed_arrival_parts) \
                if shed_arrival_parts else np.empty(0, dtype=np.float64)
            self._finish_observability(tracer, registry, capture,
                                       batches, report, engine,
                                       shed_ids, shed_arrivals)
        return report

    # ------------------------------------------------------------------ #
    # Observability plumbing (repro.obs)                                 #
    # ------------------------------------------------------------------ #
    def _resolve_observability(self, trace, metrics):
        """Normalise ``trace=``/``metrics=`` into (tracer, registry,
        capture); all three are ``None`` when observability is off, so
        the simulation paths pay one ``is not None`` check."""
        from repro.obs.capture import RunCapture
        from repro.obs.tracing import Tracer

        tracer = trace
        if tracer is not None and not isinstance(tracer, Tracer):
            raise ValueError(
                "trace= takes a repro.obs.Tracer instance (it holds the "
                "reconstructed timeline after the run); got %r" % (trace,))
        if metrics is None or metrics is False:
            registry = None
        elif metrics is True:
            registry = self.metrics
        elif isinstance(metrics, MetricsRegistry):
            registry = metrics
        else:
            raise ValueError(
                "metrics= takes True (publish into the cluster's own "
                "registry) or a ready MetricsRegistry; got %r"
                % (metrics,))
        capture = RunCapture() \
            if tracer is not None or registry is not None else None
        return tracer, registry, capture

    def _replay_batch_nodes(self, batches):
        """Post-hoc routing replay: the node fan-out of every batch.

        Every ``simulate`` starts from fresh routing state, so replaying
        the dispatched batches in order from another fresh reset
        reproduces the run's per-request node assignments exactly --
        stateful sharders advance the same load counters through the
        same committed sequence, stateless ones are pure functions of
        content.  This runs strictly *after* the report exists, so it
        cannot perturb the simulation; the next run's own reset
        restores fresh state regardless of what the replay advanced.
        """
        if self.sharder.stateful:
            self.sharder.reset_routing()
        batch_nodes = []
        for batch in batches:
            assignment = self.sharder.assign_requests(batch.requests())
            batch_nodes.append(np.unique(np.asarray(assignment)))
        return batch_nodes

    def _finish_observability(self, tracer, registry, capture, batches,
                              report, engine, shed_ids, shed_arrivals):
        """Feed the tracer and publish per-run metrics after a run."""
        if tracer is not None:
            tracer.record_run(capture, run_info={
                "cluster": self.describe(),
                "engine": engine.name,
                "num_nodes": self.num_nodes,
                "node_system": self.node_system,
                "shard_policy": self.sharder.policy,
                "num_frontends": self.num_frontends,
            })
            if shed_ids.size:
                tracer.record_shed(shed_ids, shed_arrivals)
            tracer.record_assignments(self._replay_batch_nodes(batches),
                                      self.num_nodes)
        if registry is not None:
            registry.counter(
                "serving.runs_total",
                help="simulate() calls published into this registry").inc()
            registry.counter(
                "serving.queries_total",
                help="admitted queries across published runs").inc(
                capture.num_queries)
            registry.counter(
                "serving.batches_total",
                help="dispatched batches across published runs").inc(
                capture.num_batches)
            registry.counter(
                "serving.queries_shed_total",
                help="queries turned away by admission control").inc(
                int(shed_ids.size))
            _observe_finite(
                registry.histogram(
                    "serving.query_latency_us",
                    help="per-query latency (arrival to completion)"),
                capture.query_latency_us)
            _observe_finite(
                registry.histogram(
                    "serving.batching_delay_us",
                    help="per-query wait in the forming batch"),
                capture.per_query(capture.batch_ready_us)
                - capture.query_arrival_us)
            _observe_finite(
                registry.histogram(
                    "serving.batch_queue_wait_us",
                    help="per-batch wait in the dispatch queue"),
                capture.batch_start_us - capture.batch_ready_us)
            _observe_finite(
                registry.histogram(
                    "serving.batch_service_us",
                    help="per-batch execution time on the cluster"),
                capture.batch_service_us)
            registry.gauge(
                "serving.last_offered_qps",
                help="offered query rate of the last published run").set(
                report.offered_qps)
            registry.gauge(
                "serving.last_utilization",
                help="offered-load utilisation of the last run").set(
                report.utilization)
            registry.gauge(
                "serving.last_sustainable_qps",
                help="saturation throughput of the last run").set(
                report.sustainable_qps)
            if capture.max_queue_depth is not None:
                registry.gauge(
                    "serving.last_max_queue_depth",
                    help="deepest dispatch queue of the last run").set(
                    capture.max_queue_depth)
            if capture.measured_utilization is not None:
                registry.gauge(
                    "serving.last_measured_utilization",
                    help="measured busy fraction of the last run").set(
                    capture.measured_utilization)

    def describe(self):
        return "%dx %s" % (self.num_nodes, self.node_system)


def _check_finite_arrivals(arrivals, offset):
    """Reject NaN/+-inf arrival times, naming the first bad position.

    The non-decreasing check cannot see them (NaN compares False, and
    ``-inf < -inf`` is False), and downstream they only surface as NaN
    latency means.  ``offset`` is the input position of ``arrivals[0]``.
    """
    finite = np.isfinite(arrivals)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError("arrival_us must be finite, but query %d of the "
                         "input has arrival_us=%r"
                         % (offset + index, float(arrivals[index])))


def _check_has_requests(columns):
    """Reject queries without SLS requests, naming the first one.

    Such a query gives its batch no work: alone it fails deep in
    dispatch, and batched with real queries it is served and counted.
    """
    from repro.serving.query_columns import stored_rows

    # A zero-stride count column stores its first row only, so its first
    # bad row is row 0.
    empty = stored_rows(columns.num_requests) == 0
    if empty.any():
        raise ValueError("query_id %d has no SLS requests"
                         % int(columns.query_id[np.argmax(empty)]))


def _require_valid_service_times(model, times, offset):
    """Reject NaN, infinite or negative service times from ``model``,
    naming the first bad batch.

    Downstream they would only surface as NaN percentiles or a negative
    utilisation.  ``offset`` is the run-wide index of ``times[0]``'s
    batch.
    """
    times = np.asarray(times, dtype=np.float64)
    valid = (times >= 0.0) & (times < np.inf)
    if not valid.all():
        index = int(np.argmin(valid))
        raise ValueError("service-time model %r returned %r us for batch "
                         "%d; service times must be finite and "
                         "non-negative" % (model.describe(),
                                           float(times[index]),
                                           offset + index))


def _column_chunks(queries, stream_chunk):
    """Yield ``(chunk, is_final)`` pairs in global (arrival, id) order.

    ``queries`` is a :class:`QueryStream` (drained ``stream_chunk`` at a
    time; must be bounded), a :class:`QueryColumns`, or any iterable of
    :class:`ServingQuery` objects (both materialised forms are sorted
    once and sliced).  Streamed chunks are required to arrive in
    non-decreasing arrival order -- every built-in arrival process
    generates monotone times -- because carried batching state is only
    meaningful over a globally sorted stream.  Non-finite arrival times
    and queries without SLS requests are rejected in both forms, a
    stream's chunk by chunk.  Deadline assignment replaces a chunk's
    deadline column instead of writing into it, so the caller's queries
    are never changed.
    """
    from repro.serving.query_columns import QueryColumns, QueryStream

    if isinstance(queries, QueryStream):
        if queries.num_queries is None:
            raise ValueError("chunked simulation needs a bounded stream; "
                             "construct the QueryStream with num_queries")
        last_arrival = -np.inf
        taken = 0
        while True:
            chunk = queries.take(stream_chunk)
            if not len(chunk):
                break
            arrivals = chunk.arrival_us
            _check_finite_arrivals(arrivals, taken)
            _check_has_requests(chunk)
            taken += len(chunk)
            # Arrivals are finite here, so this equals np.diff(...) < 0
            # without a chunk-sized float temporary.
            if arrivals[0] < last_arrival \
                    or np.any(arrivals[1:] < arrivals[:-1]):
                raise ValueError(
                    "streamed arrivals must be non-decreasing")
            last_arrival = float(arrivals[-1])
            is_final = queries.remaining == 0
            yield chunk, is_final
            if is_final:
                break
        return
    if isinstance(queries, QueryColumns):
        # A fresh object over the caller's arrays: deadline assignment
        # replaces its chunks' deadline attribute, never writes into it.
        columns = queries.slice(0, len(queries))
    else:
        columns = QueryColumns.from_queries(list(queries))
    _check_finite_arrivals(columns.arrival_us, 0)
    _check_has_requests(columns)
    columns = columns.sorted_by_arrival()
    size = len(columns)
    if stream_chunk is None:
        if size:
            yield columns, True
        return
    for start in range(0, size, stream_chunk):
        stop = min(start + stream_chunk, size)
        yield columns.slice(start, stop), stop == size


def build_sweep_cluster(spec):
    """Rebuild an equivalent cluster from a sweep spec.

    The sharder is deep-copied so the rebuilt cluster owns its routing
    state even when built in-process from a live spec; everything else
    in the spec is plain configuration.  The clone's node-level backend
    is serial and its store -- when the spec names one -- is a fresh
    connection to the shared database file.
    """
    import copy

    spec = dict(spec)
    return ShardedServingCluster(
        num_nodes=spec["num_nodes"],
        node_system=spec["node_system"],
        sharder=copy.deepcopy(spec["sharder"]),
        num_frontends=spec["num_frontends"],
        service_cache_entries=spec["service_cache_entries"],
        service_store=spec["service_store"],
        **spec["node_overrides"])


def qps_sweep(cluster, make_queries, qps_points, frontend=None, engine=None,
              service_model=None, slo_policy=None, admission=None,
              backend=None, jobs=None):
    """Latency/throughput curve over offered load.

    ``make_queries(qps)`` must return the queries offered at that rate
    (typically the same queries with arrival times rescaled): an
    iterable of :class:`~repro.serving.arrival.ServingQuery` objects or
    a :class:`~repro.serving.query_columns.QueryColumns`.  ``engine``,
    ``service_model``, ``slo_policy`` and ``admission`` are forwarded to
    every :meth:`ShardedServingCluster.simulate` call; all are resolved
    *once* -- stateful engines see the whole sweep, a string-specified
    service model is not re-instantiated at every QPS point, and
    every point starts from a fresh admission state.
    Returns the list of :class:`ServingReport`, one per point, in order.

    ``backend``/``jobs`` select the *sweep-level* execution backend
    (default serial): sweep points are independent given fresh routing
    state -- ``simulate`` already resets it per run -- so ``"process"``
    rebuilds the cluster in worker processes, one point per worker.  Query streams are materialised in the parent
    (``make_queries`` itself never crosses a process boundary), every
    worker's service-time cache/store deltas are merged back into
    ``cluster``, and the reports are bit-identical to the serial loop.
    A backend passed by name is shut down when the sweep returns; a
    ready instance is left running for the caller to reuse.
    """
    from repro.core.backend import ParallelBackend, resolve_backend
    from repro.perf.service_model import resolve_service_model
    from repro.serving.query_columns import QueryColumns
    from repro.serving.slo import resolve_slo_policy

    engine = resolve_engine(engine)
    service_model = resolve_service_model(service_model)
    slo_policy = resolve_slo_policy(slo_policy)
    admission = resolve_admission(admission)
    owns_backend = not isinstance(backend, ParallelBackend)
    sweep_backend = resolve_backend(backend, max_workers=jobs)
    point_queries = []
    for qps in qps_points:
        # Columns pass through (they pickle with their provider); any
        # other query source is materialised here in the parent.
        queries = make_queries(qps)
        if not isinstance(queries, QueryColumns):
            queries = list(queries)
        point_queries.append(queries)
    try:
        return sweep_backend.run_sweep_points(
            cluster, point_queries, frontend=frontend, engine=engine,
            service_model=service_model, slo_policy=slo_policy,
            admission=admission)
    finally:
        if owns_backend:
            sweep_backend.shutdown()
