"""Table sharding: place embedding tables on serving nodes.

Embedding models are far larger than one node's memory, so tables are
sharded across N nodes and a query fans out to every node that holds one of
its tables.  Placement must be *deterministic* (every frontend replica must
agree where a table lives).

Two sharders implement the same interface
(``assign_requests`` / ``shard_load``):

* :class:`TableSharder` -- the single-placement sharder: every table lives
  on exactly one node, chosen as a pure function of the table id
  (``"round-robin"`` / ``"hash"``).  Stateless and content-addressed, so
  the cluster can memoise batch service times by content alone.
* :class:`ReplicatedTableSharder` -- replication-aware sharding fed by
  trace statistics.  Tables whose load share exceeds ``hot_fraction``
  get several replicas (factor proportional to their share, capped by
  ``max_replicas``).  The placement policy is one of
  :attr:`ReplicatedTableSharder.POLICIES`: ``"load-aware"`` bin-packs
  the per-replica loads greedily (LPT) onto the least-loaded nodes,
  while ``"round-robin"`` / ``"hash"`` put each primary where
  :class:`TableSharder` would and the extra replicas on the following
  nodes.  Per-request routing picks the least-loaded replica by a
  seeded running counter -- deterministic, so every frontend that sees
  the same request stream routes it identically.

On skewed production traces a handful of hot tables dominate per-node
load; with single placement the slowest shard sets every batch's service
time.  Replication divides the hot tables' load across nodes, and
load-aware placement keeps the cold remainder bin-packed -- which is what
:mod:`benchmarks.bench_sharding` measures.
"""

import math

import numpy as np


def _knuth_hash(value):
    """Knuth multiplicative hash: spread clustered ids uniformly without
    any per-process randomisation (unlike Python's ``hash()``)."""
    return ((int(value) * 2654435761) & 0xFFFFFFFF) >> 8


# --------------------------------------------------------------------- #
# Trace statistics feeding load-aware placement and replication.
# --------------------------------------------------------------------- #
def compute_table_loads(traces):
    """``{table_id: lookup count}`` from per-table embedding traces.

    The trace length is the expected per-table lookup volume -- the
    statistic load-aware placement bin-packs on and replication factors
    derive from.
    """
    return {int(trace.table_id): float(len(trace)) for trace in traces}


def table_loads_from_queries(queries, request_overhead_lookups=0.0):
    """``{table_id: load}`` measured from a serving-query sample.

    More faithful than trace lengths when queries carry differently sized
    requests per table (the skewed regimes replication exists for).
    ``request_overhead_lookups`` charges each request a fixed cost in
    lookup-equivalents on top of its lookups: embedding nodes pay a
    per-request dispatch overhead (instruction issue, packet headers)
    that dominates small requests, so balancing raw lookups alone
    over-packs nodes with many small-table requests.
    """
    if request_overhead_lookups < 0:
        raise ValueError("request_overhead_lookups must be non-negative")
    loads = {}
    for query in queries:
        for request in query.requests:
            table = int(request.table_id)
            loads[table] = loads.get(table, 0.0) \
                + float(request.total_lookups) + request_overhead_lookups
    return loads


def load_imbalance(shard_loads):
    """Max/mean per-node load ratio (1.0 = perfectly balanced)."""
    loads = [float(load) for load in shard_loads]
    if not loads:
        raise ValueError("need at least one shard load")
    mean = sum(loads) / len(loads)
    return max(loads) / mean if mean > 0.0 else 1.0


def calibrate_request_overhead_lookups(node, request, splits=4):
    """Measure a node's per-request dispatch cost in lookup-equivalents.

    The placement/routing cost model charges every SLS request a fixed
    overhead (``request_overhead_lookups``) on top of its lookups --
    instruction issue, packet headers, partially filled NMP packets.
    Rather than hand-setting that constant, measure it from the system
    itself: execute the same lookups once as a single merged request and
    once split into ``splits`` requests, attribute the extra time of the
    split run to the ``splits - 1`` additional dispatches, and express it
    in units of the node's own per-lookup service time.

    ``node`` is any :class:`~repro.systems.base.EmbeddingSystem`;
    ``request`` a representative :class:`SLSRequest` with at least
    ``splits`` poolings.  ``splits`` sets the granularity being priced
    and should mirror the serving stream (one split per real request, as
    :func:`calibrate_request_overhead_from_queries` arranges): a split
    far coarser than real requests can alias with the node's internal
    packing (e.g. RecNMP's poolings-per-packet) and under-measure.
    Returns a non-negative float (0.0 for purely analytical systems
    whose cost is exactly linear in lookups).  Pass the result -- or a
    hand-set override -- as ``request_overhead_lookups`` to
    :class:`ReplicatedTableSharder` / :func:`table_loads_from_queries`.
    """
    if splits < 2:
        raise ValueError("splits must be >= 2")
    num_poolings = len(request.lengths)
    if num_poolings < splits:
        raise ValueError(
            "calibration request needs at least %d poolings, got %d"
            % (splits, num_poolings))
    bounds = np.concatenate(([0], np.cumsum(request.lengths)))
    groups = np.array_split(np.arange(num_poolings), splits)
    split_requests = [
        type(request)(table_id=request.table_id,
                      indices=request.indices[bounds[g[0]]:bounds[g[-1] + 1]],
                      lengths=request.lengths[g[0]:g[-1] + 1])
        for g in groups]
    merged_us = node.service_time_us([request])
    split_us = node.service_time_us(split_requests)
    if merged_us <= 0.0:
        raise ValueError("merged calibration request took no time; the "
                         "node's service model is degenerate")
    per_lookup_us = merged_us / float(request.total_lookups)
    overhead_us = (split_us - merged_us) / (splits - 1)
    return max(0.0, overhead_us / per_lookup_us)


def calibrate_request_overhead_from_queries(node, queries):
    """Calibrate the per-request overhead from a serving-query sample.

    Concatenates the sample's requests per table, calibrates on the
    widest result (most poolings -- the best signal-to-noise for the
    split measurement), and splits it back at the sample's *typical
    request width* -- so the split run reconstructs the dispatch
    granularity the node actually serves, which is exactly the
    per-request cost the sharder's load model prices.  Returns 0.0 when
    the sample has too few poolings to measure anything
    (single-pooling streams), the neutral price.
    """
    candidates = [request for query in queries
                  for request in query.requests]
    if not candidates:
        raise ValueError("need at least one request to calibrate from")
    by_table = {}
    for request in candidates:
        by_table.setdefault(int(request.table_id), []).append(request)
    merged = []
    for table, requests in sorted(by_table.items()):
        merged.append(type(requests[0])(
            table_id=table,
            indices=np.concatenate([r.indices for r in requests]),
            lengths=np.concatenate([r.lengths for r in requests])))
    widest = max(merged, key=lambda r: len(r.lengths))
    total_poolings = len(widest.lengths)
    typical_poolings = max(
        1, int(np.median([len(r.lengths) for r in candidates])))
    splits = min(total_poolings,
                 max(2, round(total_poolings / typical_poolings)))
    if total_poolings < 2:
        return 0.0
    return calibrate_request_overhead_lookups(node, widest, splits=splits)


def partition_by_assignment(requests, assignment, num_nodes):
    """Split requests into per-node lists given one node per request."""
    partitions = [[] for _ in range(num_nodes)]
    for request, node in zip(requests, assignment):
        partitions[node].append(request)
    return partitions


# --------------------------------------------------------------------- #
class TableSharder:
    """Deterministic single-placement table -> node sharding.

    Parameters
    ----------
    num_nodes:
        Serving nodes in the cluster.
    policy:
        ``"round-robin"`` -- table ``t`` lives on node ``t % num_nodes``
        (perfectly balanced for dense table id spaces);
        ``"hash"`` -- a Knuth multiplicative hash of the table id, balanced
        in expectation even for sparse or clustered id spaces.
    """

    POLICIES = ("round-robin", "hash")

    #: Stateless: assignments are a pure function of request content, so
    #: the cluster may memoise service times by batch content alone.
    stateful = False

    def __init__(self, num_nodes, policy="round-robin"):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if policy not in self.POLICIES:
            raise ValueError("policy must be one of %s" % (self.POLICIES,))
        self.num_nodes = int(num_nodes)
        self.policy = policy

    # ------------------------------------------------------------------ #
    def node_of_table(self, table_id):
        """Node index a table is placed on (deterministic)."""
        table_id = int(table_id)
        if table_id < 0:
            raise ValueError("table_id must be non-negative")
        if self.policy == "round-robin":
            return table_id % self.num_nodes
        return _knuth_hash(table_id) % self.num_nodes

    def assign_requests(self, requests, commit=True):
        """One node index per request (``commit`` is a no-op here)."""
        return [self.node_of_table(request.table_id)
                for request in requests]

    def shard_load(self, requests):
        """Per-node lookup counts for a request list (balance diagnostics)."""
        load = [0] * self.num_nodes
        for request in requests:
            load[self.node_of_table(request.table_id)] += \
                request.total_lookups
        return load

    def describe(self):
        """Human-readable one-line description of the sharder."""
        return "%s over %d nodes" % (self.policy, self.num_nodes)


class ReplicatedTableSharder:
    """Replication-aware sharding with load-aware placement.

    Every table gets a replication factor derived from its share of the
    expected lookup load: tables at or below ``hot_fraction`` of the total
    keep a single replica, a table carrying ``k`` times the hot threshold
    gets ``ceil(k)`` replicas (capped by ``max_replicas`` and the node
    count).  Replicas are placed by the selected policy -- ``"load-aware"``
    bin-packs per-replica loads greedily (heaviest first, least-loaded
    nodes), ``"round-robin"`` / ``"hash"`` place the primary like
    :class:`TableSharder` and the extra replicas on the following nodes.

    Per-request routing picks the least-loaded replica by a running
    lookup counter, with a seeded rotation breaking ties -- a pure
    function of ``(seed, placement, request stream)``, so every frontend
    that replays the same stream routes it identically, with no
    coordination.  Routing is *stateful*: the cluster includes the
    assignment in its service-time cache key (see
    :meth:`ShardedServingCluster.service_time_us`).

    Parameters
    ----------
    num_nodes:
        Serving nodes in the cluster.
    table_loads:
        ``{table_id: expected lookups}`` from trace statistics
        (:func:`compute_table_loads` / :func:`table_loads_from_queries`).
    policy:
        Placement policy, one of :attr:`POLICIES`.
    max_replicas:
        Upper bound on replicas per table (1 disables replication and
        leaves pure placement).
    hot_fraction:
        Load share above which a table counts as hot and is replicated.
    seed:
        Tie-breaking seed shared by every frontend.
    request_overhead_lookups:
        Fixed per-request routing cost in lookup-equivalents, matching
        the same parameter of :func:`table_loads_from_queries` -- keeps
        the running replica-selection counters in the same cost unit the
        placement was computed in.  Hand-set, or measured from the node
        itself via :func:`calibrate_request_overhead_lookups`.
    """

    POLICIES = ("hash", "load-aware", "round-robin")

    stateful = True

    def __init__(self, num_nodes, table_loads, policy="load-aware",
                 max_replicas=2, hot_fraction=0.1, seed=0,
                 request_overhead_lookups=0.0):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if policy not in self.POLICIES:
            raise ValueError("unknown placement policy %r; available: %s"
                             % (policy, ", ".join(self.POLICIES)))
        if max_replicas < 1:
            raise ValueError("max_replicas must be >= 1")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not table_loads:
            raise ValueError("need at least one table load")
        if request_overhead_lookups < 0:
            raise ValueError("request_overhead_lookups must be "
                             "non-negative")
        self.num_nodes = int(num_nodes)
        self.policy = policy
        self.max_replicas = int(max_replicas)
        self.hot_fraction = float(hot_fraction)
        self.seed = int(seed)
        self.request_overhead_lookups = float(request_overhead_lookups)
        self.table_loads = {int(t): float(load)
                            for t, load in table_loads.items()}
        negative = sorted(t for t in self.table_loads if t < 0)
        if negative:
            raise ValueError("table ids must be non-negative, got %s"
                             % ", ".join(str(t) for t in negative))
        if any(load < 0 for load in self.table_loads.values()):
            raise ValueError("table loads must be non-negative")
        self.replicas = self._replicate_and_place()
        # Tables the load map never saw fall back to stateless hashing
        # (a single replica on a stable node).
        self._fallback = TableSharder(self.num_nodes, policy="hash")
        self.reset_routing()

    @classmethod
    def from_traces(cls, num_nodes, traces, **kwargs):
        """Build from per-table embedding traces (loads = trace lengths)."""
        return cls(num_nodes, compute_table_loads(traces), **kwargs)

    @classmethod
    def from_queries(cls, num_nodes, queries, request_overhead_lookups=0.0,
                     **kwargs):
        """Build from a serving-query sample (loads = measured cost).

        ``request_overhead_lookups`` feeds both the measured table loads
        and the sharder's routing counters, so placement and routing
        agree on what one request costs.
        """
        return cls(num_nodes,
                   table_loads_from_queries(queries,
                                            request_overhead_lookups),
                   request_overhead_lookups=request_overhead_lookups,
                   **kwargs)

    # ------------------------------------------------------------------ #
    def _factor_for(self, load, total):
        if total <= 0.0 or load <= 0.0:
            return 1
        share = load / total
        if share <= self.hot_fraction:
            return 1
        return min(self.max_replicas, self.num_nodes,
                   int(math.ceil(share / self.hot_fraction)))

    def _replicate_and_place(self):
        total = sum(self.table_loads.values())
        factors = {table: self._factor_for(load, total)
                   for table, load in self.table_loads.items()}
        replicas = {}
        if self.policy == "load-aware":
            # Bin-pack per-replica loads: heaviest share first, each
            # table's replicas on its r least-loaded distinct nodes.  Ties
            # break on (load, node, table), so the packing is a pure
            # function of the load map -- every frontend computes the
            # same one.
            node_load = [0.0] * self.num_nodes
            order = sorted(
                self.table_loads,
                key=lambda t: (-self.table_loads[t] / factors[t], t))
            for table in order:
                factor = factors[table]
                share = self.table_loads[table] / factor
                nodes = sorted(range(self.num_nodes),
                               key=lambda n: (node_load[n], n))[:factor]
                for node in nodes:
                    node_load[node] += share
                replicas[table] = tuple(sorted(nodes))
        else:
            # The primary sits where TableSharder would put the table;
            # extra replicas take the following nodes.
            primary = TableSharder(self.num_nodes, self.policy)
            for table in self.table_loads:
                node = primary.node_of_table(table)
                replicas[table] = tuple(sorted(
                    (node + offset) % self.num_nodes
                    for offset in range(factors[table])))
        return replicas

    def replica_nodes(self, table_id):
        """All nodes holding a table, sorted (one for unknown tables)."""
        table_id = int(table_id)
        if table_id < 0:
            raise ValueError("table_id must be non-negative")
        nodes = self.replicas.get(table_id)
        if nodes is None:
            return (self._fallback.node_of_table(table_id),)
        return nodes

    # ------------------------------------------------------------------ #
    # Routing: deterministic least-loaded-of-k by a running counter.
    # ------------------------------------------------------------------ #
    def reset_routing(self):
        """Forget routed load (a fresh frontend's view of the cluster)."""
        self._routed_load = [0.0] * self.num_nodes
        self._route_counts = {}

    def _pick_replica(self, table_id, routed_load, route_counts):
        nodes = self.replica_nodes(table_id)
        if len(nodes) == 1:
            return nodes[0]
        count = route_counts.get(table_id, 0)
        # Seeded rotation so ties do not all collapse onto the lowest
        # node index; pure function of (seed, table, per-table count),
        # hence identical on every frontend replaying the same stream.
        rotation = _knuth_hash(self.seed * 1000003 + table_id * 8191
                               + count)
        return min(nodes, key=lambda n: (routed_load[n],
                                         (n + rotation) % self.num_nodes,
                                         n))

    def assign_requests(self, requests, commit=True):
        """One node per request, least-loaded replica first.

        With ``commit=True`` (the default) the routing counters advance;
        ``commit=False`` answers "where would these go from the current
        state" without perturbing it (used for load diagnostics).
        """
        if commit:
            routed_load, route_counts = self._routed_load, \
                self._route_counts
        else:
            routed_load = list(self._routed_load)
            route_counts = dict(self._route_counts)
        assignment = []
        for request in requests:
            table = int(request.table_id)
            node = self._pick_replica(table, routed_load, route_counts)
            routed_load[node] += float(request.total_lookups) \
                + self.request_overhead_lookups
            route_counts[table] = route_counts.get(table, 0) + 1
            assignment.append(node)
        return assignment

    def shard_load(self, requests):
        """Per-node lookup counts a request list *would* route to.

        Diagnostic: routes from the current counters without committing,
        so inspecting balance never changes subsequent routing.
        """
        load = [0.0] * self.num_nodes
        for request, node in zip(requests,
                                 self.assign_requests(requests,
                                                      commit=False)):
            load[node] += request.total_lookups
        return load

    def describe(self):
        """Human-readable one-line description of the sharder."""
        replicated = sum(1 for nodes in self.replicas.values()
                         if len(nodes) > 1)
        return ("%s over %d nodes, %d/%d tables replicated (<=%d replicas)"
                % (self.policy, self.num_nodes, replicated,
                   len(self.replicas), self.max_replicas))
