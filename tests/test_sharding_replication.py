"""Tests for replication-aware sharding and load-aware placement."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlrm.operators import SLSRequest
from repro.serving import (
    BatchingFrontend,
    PoissonArrivalProcess,
    ReplicatedTableSharder,
    ShardedServingCluster,
    TableSharder,
    compute_table_loads,
    load_imbalance,
    queries_from_traces,
    table_loads_from_queries,
)
from repro.serving.sharding import partition_by_assignment
from repro.traces import make_production_table_traces

NUM_ROWS = 512
VECTOR_BYTES = 64

#: One hot table (~57% of the lookups) over four nodes: the skewed regime
#: replication-aware sharding exists for.
SKEWED_LOADS = {0: 800, 1: 200, 2: 100, 3: 100, 4: 50, 5: 50, 6: 50,
                7: 50}
SKEWED_POOLINGS = [64, 16, 8, 8, 4, 4, 4, 4]


def address_of(table_id, row):
    return (table_id * NUM_ROWS + row) * VECTOR_BYTES


def make_requests(pattern, lookups_per_request=8, seed=0):
    """One SLS request per entry of ``pattern`` (a table-id sequence)."""
    rng = np.random.default_rng(seed)
    return [SLSRequest(table_id=t,
                       indices=rng.integers(0, NUM_ROWS,
                                            size=lookups_per_request),
                       lengths=np.asarray([lookups_per_request]))
            for t in pattern]


def make_skewed_queries(num_queries=16, qps=50_000.0, seed=1):
    traces = make_production_table_traces(
        num_lookups_per_table=4_000, num_rows=NUM_ROWS,
        num_tables=len(SKEWED_POOLINGS), seed=0)
    return queries_from_traces(
        traces, num_queries, PoissonArrivalProcess(rate_qps=qps, seed=seed),
        batch_size=2, pooling_factor=SKEWED_POOLINGS)


class TestTableLoads:
    def test_compute_table_loads_is_trace_length(self):
        traces = make_production_table_traces(
            num_lookups_per_table=300, num_rows=NUM_ROWS, num_tables=3,
            seed=0)
        assert compute_table_loads(traces) == {0: 300, 1: 300, 2: 300}

    def test_loads_from_queries_measure_lookups(self):
        queries = make_skewed_queries(num_queries=4)
        loads = table_loads_from_queries(queries)
        # 4 queries x 2 poolings x per-table factor.
        assert loads[0] == pytest.approx(4 * 2 * 64)
        assert loads[7] == pytest.approx(4 * 2 * 4)
        with_overhead = table_loads_from_queries(
            queries, request_overhead_lookups=10.0)
        # One request per query per table: +10 lookup-equivalents each.
        assert with_overhead[0] == pytest.approx(loads[0] + 4 * 10.0)
        with pytest.raises(ValueError):
            table_loads_from_queries(queries, request_overhead_lookups=-1)

    def test_load_imbalance(self):
        assert load_imbalance([10.0, 10.0]) == pytest.approx(1.0)
        assert load_imbalance([30.0, 10.0]) == pytest.approx(1.5)
        assert load_imbalance([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            load_imbalance([])


def lpt_placement(loads, num_nodes):
    """Longest-processing-time-first oracle: heaviest table (lowest id on
    ties) onto the least-loaded node (lowest index on ties)."""
    heap = [(0.0, node) for node in range(num_nodes)]
    placement = {}
    for load, table in sorted((-load, table)
                              for table, load in loads.items()):
        node_load, node = heapq.heappop(heap)
        placement[table] = node
        heapq.heappush(heap, (node_load - load, node))
    return placement


LOAD_MAPS = st.dictionaries(
    st.integers(0, 200),
    st.one_of(st.integers(0, 20).map(float),
              st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=30)


class TestPlacementPolicies:
    def test_registry_names(self):
        assert ReplicatedTableSharder.POLICIES == ("hash", "load-aware",
                                                   "round-robin")

    def test_load_aware_beats_round_robin_on_skew(self):
        for num_nodes in (2, 3, 4):
            nodes_rr = [0.0] * num_nodes
            nodes_la = [0.0] * num_nodes
            la = ReplicatedTableSharder(num_nodes, SKEWED_LOADS,
                                        max_replicas=1)
            rr = TableSharder(num_nodes)
            for table, load in SKEWED_LOADS.items():
                nodes_rr[rr.node_of_table(table)] += load
                nodes_la[la.replica_nodes(table)[0]] += load
            assert load_imbalance(nodes_la) <= load_imbalance(nodes_rr)

    def test_load_aware_is_deterministic(self):
        first = ReplicatedTableSharder(4, SKEWED_LOADS)
        second = ReplicatedTableSharder(
            4, dict(reversed(list(SKEWED_LOADS.items()))))
        assert first.replicas == second.replicas

    @given(num_nodes=st.integers(1, 9), loads=LOAD_MAPS,
           policy=st.sampled_from(["round-robin", "hash"]))
    @settings(max_examples=150, deadline=None)
    def test_fixed_primaries_equal_table_sharder(self, num_nodes, loads,
                                                 policy):
        sharder = ReplicatedTableSharder(num_nodes, loads, policy=policy,
                                         max_replicas=1)
        single = TableSharder(num_nodes, policy)
        assert sharder.replicas == {
            table: (single.node_of_table(table),) for table in loads}

    @given(num_nodes=st.integers(1, 9), loads=LOAD_MAPS)
    @settings(max_examples=150, deadline=None)
    def test_load_aware_equals_lpt(self, num_nodes, loads):
        sharder = ReplicatedTableSharder(num_nodes, loads,
                                         policy="load-aware",
                                         max_replicas=1)
        assert sharder.replicas == {
            table: (node,)
            for table, node in lpt_placement(loads, num_nodes).items()}

    @given(num_nodes=st.integers(1, 9), loads=LOAD_MAPS,
           policy=st.sampled_from(["round-robin", "hash"]),
           max_replicas=st.integers(2, 5),
           hot_fraction=st.floats(0.05, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_replicas_follow_the_primary(self, num_nodes, loads, policy,
                                         max_replicas, hot_fraction):
        sharder = ReplicatedTableSharder(
            num_nodes, loads, policy=policy, max_replicas=max_replicas,
            hot_fraction=hot_fraction)
        single = TableSharder(num_nodes, policy)
        for table in loads:
            nodes = sharder.replica_nodes(table)
            assert 1 <= len(nodes) <= min(max_replicas, num_nodes)
            primary = single.node_of_table(table)
            assert nodes == tuple(sorted(
                (primary + offset) % num_nodes
                for offset in range(len(nodes))))

    @pytest.mark.parametrize("policy", ReplicatedTableSharder.POLICIES)
    def test_negative_table_id_rejected(self, policy):
        with pytest.raises(ValueError, match="-1"):
            ReplicatedTableSharder(2, {-1: 5.0, 0: 1.0}, policy=policy)


class TestReplicationFactors:
    def test_uniform_loads_do_not_replicate(self):
        sharder = ReplicatedTableSharder(
            4, {t: 100 for t in range(8)}, max_replicas=3,
            hot_fraction=0.2)
        assert all(len(sharder.replica_nodes(t)) == 1 for t in range(8))

    def test_hot_table_replicates_proportionally(self):
        sharder = ReplicatedTableSharder(4, SKEWED_LOADS, max_replicas=4,
                                         hot_fraction=0.2)
        # Table 0 carries ~57% of the load: ceil(0.57 / 0.2) = 3 replicas.
        assert len(sharder.replica_nodes(0)) == 3
        assert len(sharder.replica_nodes(1)) == 1
        nodes = sharder.replica_nodes(0)
        assert len(nodes) == len(set(nodes)) == 3

    def test_factor_caps(self):
        capped = ReplicatedTableSharder(4, SKEWED_LOADS, max_replicas=2,
                                        hot_fraction=0.2)
        assert len(capped.replica_nodes(0)) == 2
        few_nodes = ReplicatedTableSharder(2, SKEWED_LOADS, max_replicas=8,
                                           hot_fraction=0.05)
        assert len(few_nodes.replica_nodes(0)) == 2    # <= num_nodes

    def test_max_replicas_one_is_pure_placement(self):
        sharder = ReplicatedTableSharder(4, SKEWED_LOADS, max_replicas=1,
                                         hot_fraction=0.1)
        assert all(len(nodes) == 1
                   for nodes in sharder.replicas.values())

    def test_replication_composes_with_static_policies(self):
        for policy in ("round-robin", "hash"):
            sharder = ReplicatedTableSharder(4, SKEWED_LOADS,
                                             policy=policy,
                                             max_replicas=3,
                                             hot_fraction=0.2)
            assert len(sharder.replica_nodes(0)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicatedTableSharder(0, SKEWED_LOADS)
        with pytest.raises(ValueError):
            ReplicatedTableSharder(4, SKEWED_LOADS, policy="nope")
        with pytest.raises(ValueError):
            ReplicatedTableSharder(4, SKEWED_LOADS, max_replicas=0)
        with pytest.raises(ValueError):
            ReplicatedTableSharder(4, SKEWED_LOADS, hot_fraction=0.0)
        with pytest.raises(ValueError):
            ReplicatedTableSharder(4, {})
        with pytest.raises(ValueError):
            ReplicatedTableSharder(4, SKEWED_LOADS,
                                   request_overhead_lookups=-1.0)
        with pytest.raises(ValueError):
            ReplicatedTableSharder(4, SKEWED_LOADS).replica_nodes(-1)


class TestRouting:
    def test_routing_is_deterministic_across_frontends(self):
        """Two frontends replaying one stream must route identically."""
        queries = make_skewed_queries(num_queries=12)
        frontends = [
            ReplicatedTableSharder.from_queries(
                4, queries, policy="load-aware", max_replicas=3,
                hot_fraction=0.15, seed=7)
            for _ in range(2)]
        for query in queries:
            assignments = [frontend.assign_requests(query.requests)
                           for frontend in frontends]
            assert assignments[0] == assignments[1]

    def test_seed_changes_tie_breaking(self):
        """The rotation is seeded: equal-load replicas are broken
        differently under different seeds, identically under the same."""
        loads = {0: 100, 1: 100, 2: 100, 3: 100}
        requests = make_requests([0, 1, 2, 3])

        def first_picks(seed):
            # Each 25%-share table replicates onto both nodes
            # (0.25 > hot_fraction); a fresh sharder has all counters
            # zero, so the first pick is a pure tie among the replicas.
            sharder = ReplicatedTableSharder(2, loads, max_replicas=2,
                                             hot_fraction=0.2, seed=seed)
            assert len(sharder.replica_nodes(0)) == 2
            return sharder.assign_requests(requests, commit=False)

        assert first_picks(0) == first_picks(0)
        assert any(first_picks(seed) != first_picks(0)
                   for seed in range(1, 8))
        # Tie-breaking never routes outside the replica set.
        sharder = ReplicatedTableSharder(2, loads, max_replicas=2,
                                         hot_fraction=0.2, seed=3)
        assert sum(sharder.shard_load(requests)) == \
            sum(r.total_lookups for r in requests)

    def test_replicated_table_spreads_across_nodes(self):
        sharder = ReplicatedTableSharder(4, SKEWED_LOADS, max_replicas=3,
                                         hot_fraction=0.2)
        requests = make_requests([0] * 12)
        assignment = sharder.assign_requests(requests)
        assert set(assignment) == set(sharder.replica_nodes(0))
        # Least-loaded-of-k: even spread over the three replicas.
        counts = [assignment.count(n) for n in sharder.replica_nodes(0)]
        assert max(counts) - min(counts) <= 1

    def test_unknown_table_falls_back_deterministically(self):
        sharder = ReplicatedTableSharder(4, SKEWED_LOADS)
        requests = make_requests([99, 99])
        assignment = sharder.assign_requests(requests)
        assert assignment[0] == assignment[1]
        assert sharder.replica_nodes(99) == (assignment[0],)

    def test_shard_load_does_not_commit(self):
        def make():
            return ReplicatedTableSharder(4, SKEWED_LOADS, max_replicas=3,
                                          hot_fraction=0.2)

        requests = make_requests([0, 0, 1, 2])
        fresh = make().assign_requests(requests)
        sharder = make()
        sharder.shard_load(requests)
        assert sharder.assign_requests(requests) == fresh
        # The committed pass moved the counters: the hot table's
        # replicas are picked in a different order the second time ...
        assert sharder.assign_requests(requests) != fresh
        # ... until a reset forgets them.
        sharder.reset_routing()
        assert sharder.assign_requests(requests) == fresh

    def test_partition_preserves_requests(self):
        sharder = ReplicatedTableSharder(4, SKEWED_LOADS, max_replicas=3,
                                         hot_fraction=0.2)
        requests = make_requests([0, 0, 1, 2, 3, 4, 5, 6, 7])
        partitions = partition_by_assignment(
            requests, sharder.assign_requests(requests), 4)
        flattened = [r for part in partitions for r in part]
        assert sorted(r.table_id for r in flattened) == \
            sorted(r.table_id for r in requests)


class TestSkewedPlacementProperty:
    def test_load_aware_reduces_imbalance_on_skewed_trace(self):
        """Property: on a skewed stream, load-aware placement strictly
        reduces the max/mean shard-load imbalance vs round-robin, and
        replication tightens it further."""
        queries = make_skewed_queries(num_queries=24)
        requests = [r for q in queries for r in q.requests]
        round_robin = load_imbalance(
            TableSharder(4).shard_load(requests))
        placed = load_imbalance(
            ReplicatedTableSharder.from_queries(
                4, queries, policy="load-aware",
                max_replicas=1).shard_load(requests))
        replicated = load_imbalance(
            ReplicatedTableSharder.from_queries(
                4, queries, policy="load-aware", max_replicas=3,
                hot_fraction=0.15).shard_load(requests))
        assert placed < round_robin
        assert replicated < placed
        assert replicated < 1.5

    def test_random_skews_never_worse_than_round_robin(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            loads = {t: float(load) for t, load in
                     enumerate(rng.pareto(1.5, size=12) * 100 + 1)}
            pattern = [t for t, load in loads.items()
                       for _ in range(max(int(load) // 50, 1))]
            requests = make_requests(pattern, seed=seed)
            round_robin = load_imbalance(
                TableSharder(4).shard_load(requests))
            replicated = load_imbalance(ReplicatedTableSharder(
                4, loads, policy="load-aware", max_replicas=4,
                hot_fraction=0.1, seed=seed).shard_load(requests))
            assert replicated <= round_robin + 1e-9


class TestTableSharder:
    @pytest.mark.parametrize("policy", TableSharder.POLICIES)
    def test_negative_table_id_rejected(self, policy):
        with pytest.raises(ValueError, match="non-negative"):
            TableSharder(3, policy).node_of_table(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TableSharder(0)
        with pytest.raises(ValueError, match="round-robin"):
            TableSharder(2, policy="load-aware")

    @pytest.mark.parametrize("policy", TableSharder.POLICIES)
    def test_shard_load_and_partition_agree(self, policy):
        sharder = TableSharder(3, policy)
        requests = make_requests([0, 5, 5, 9, 12, 1], lookups_per_request=4)
        partitions = partition_by_assignment(
            requests, sharder.assign_requests(requests), 3)
        assert [sum(r.total_lookups for r in part) for part in partitions] \
            == sharder.shard_load(requests)
        assert sharder.describe() == "%s over 3 nodes" % policy


class TestReplicaInvariants:
    @given(num_nodes=st.integers(1, 9), loads=LOAD_MAPS,
           policy=st.sampled_from(ReplicatedTableSharder.POLICIES),
           max_replicas=st.integers(1, 5),
           hot_fraction=st.floats(0.05, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_replicas_are_distinct_sorted_nodes(self, num_nodes, loads,
                                                policy, max_replicas,
                                                hot_fraction):
        sharder = ReplicatedTableSharder(
            num_nodes, loads, policy=policy, max_replicas=max_replicas,
            hot_fraction=hot_fraction)
        assert set(sharder.replicas) == set(loads)
        for table, nodes in sharder.replicas.items():
            assert nodes == tuple(sorted(set(nodes)))
            assert all(0 <= node < num_nodes for node in nodes)
            assert sharder.replica_nodes(table) == nodes
            assert len(nodes) <= min(max_replicas, num_nodes)

    @given(num_nodes=st.integers(1, 6), loads=LOAD_MAPS,
           policy=st.sampled_from(ReplicatedTableSharder.POLICIES),
           pattern=st.lists(st.integers(0, 210), min_size=1, max_size=40),
           seed=st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_routing_stays_on_replicas(self, num_nodes, loads, policy,
                                       pattern, seed):
        sharder = ReplicatedTableSharder(num_nodes, loads, policy=policy,
                                         max_replicas=3, hot_fraction=0.1,
                                         seed=seed)
        requests = make_requests(pattern, lookups_per_request=2)
        preview = sharder.assign_requests(requests, commit=False)
        assignment = sharder.assign_requests(requests)
        # A dry run answers exactly what the committed run then does.
        assert preview == assignment
        for request, node in zip(requests, assignment):
            assert node in sharder.replica_nodes(request.table_id)

    @pytest.mark.parametrize("overhead, last_goes_to_first",
                             [(0.0, False), (5.0, True)])
    def test_overhead_is_charged_per_routed_request(self, overhead,
                                                     last_goes_to_first):
        """Table 0 on both nodes: one 10-lookup request on one replica,
        three 2-lookup requests on the other.  The counters then read
        10 + o against 6 + 3o, so the next request goes back to the
        first replica only when the per-request overhead o is charged."""
        sharder = ReplicatedTableSharder(2, SKEWED_LOADS, max_replicas=2,
                                         request_overhead_lookups=overhead)
        assert sharder.replica_nodes(0) == (0, 1)
        requests = (make_requests([0], lookups_per_request=10)
                    + make_requests([0] * 4, lookups_per_request=2))
        first, *rest, last = sharder.assign_requests(requests)
        assert rest == [1 - first] * 3
        assert (last == first) == last_goes_to_first

    def test_zero_loads_never_replicate(self):
        sharder = ReplicatedTableSharder(4, {0: 0.0, 1: 0.0, 2: 0.0},
                                         max_replicas=4, hot_fraction=0.05)
        assert all(len(nodes) == 1 for nodes in sharder.replicas.values())

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ReplicatedTableSharder(2, {0: 1.0, 1: -1.0})

    def test_from_traces_uses_trace_lengths(self):
        traces = make_production_table_traces(
            num_lookups_per_table=200, num_rows=NUM_ROWS, num_tables=5,
            seed=0)
        built = ReplicatedTableSharder.from_traces(4, traces,
                                                   max_replicas=3)
        direct = ReplicatedTableSharder(4, compute_table_loads(traces),
                                        max_replicas=3)
        assert built.replicas == direct.replicas

    @pytest.mark.parametrize("policy", ReplicatedTableSharder.POLICIES)
    def test_describe_counts_replicated_tables(self, policy):
        sharder = ReplicatedTableSharder(4, SKEWED_LOADS, policy=policy,
                                         max_replicas=3, hot_fraction=0.2)
        replicated = sum(1 for nodes in sharder.replicas.values()
                         if len(nodes) > 1)
        assert replicated >= 1
        assert sharder.describe() == (
            "%s over 4 nodes, %d/8 tables replicated (<=3 replicas)"
            % (policy, replicated))


class TestClusterIntegration:
    def make_cluster(self, sharder=None, **overrides):
        return ShardedServingCluster(
            num_nodes=4, node_system="recnmp-base", sharder=sharder,
            address_of=address_of, vector_size_bytes=VECTOR_BYTES,
            **overrides)

    def make_replicated(self, queries, **kwargs):
        kwargs.setdefault("policy", "load-aware")
        kwargs.setdefault("max_replicas", 3)
        kwargs.setdefault("hot_fraction", 0.15)
        return ReplicatedTableSharder.from_queries(4, queries, **kwargs)

    def test_simulate_with_replicated_sharder(self):
        queries = make_skewed_queries(num_queries=8)
        cluster = self.make_cluster(self.make_replicated(queries))
        report = cluster.simulate(
            queries, frontend=BatchingFrontend(max_queries=4,
                                               max_delay_us=100.0))
        assert report.extras["shard_policy"] == "load-aware"
        assert "replicated" in report.extras["sharder"]
        assert report.p50_us <= report.p95_us <= report.p99_us

    def test_replicated_cluster_is_deterministic(self):
        def run_once():
            queries = make_skewed_queries(num_queries=8)
            cluster = self.make_cluster(self.make_replicated(queries))
            return cluster.simulate(queries).as_dict()

        assert run_once() == run_once()

    def test_repeated_simulate_is_idempotent(self):
        """Regression: simulate() inherited the previous run's routing
        counters, so identical streams produced different reports
        depending on run order (and on sweep-point position)."""
        queries = make_skewed_queries(num_queries=8)
        cluster = self.make_cluster(self.make_replicated(queries))
        first = cluster.simulate(queries).as_dict()
        second = cluster.simulate(queries).as_dict()
        assert first == second

    def test_cache_key_includes_routing_state(self):
        """The same batch content routed differently must not collide.

        With a stateful sharder the replica chosen for a hot table depends
        on the running load counters, so replaying one batch twice can
        partition it differently -- a content-only cache key would replay
        the first service time for the second routing.
        """
        queries = make_skewed_queries(num_queries=4)
        sharder = self.make_replicated(queries)
        cluster = self.make_cluster(sharder)
        frontend = BatchingFrontend(max_queries=4, max_delay_us=1000.0)
        batch = frontend.form_batches(queries)[0]
        first_assignment = sharder.assign_requests(batch.requests(),
                                                   commit=False)
        cluster.service_time_us(batch)
        second_assignment = sharder.assign_requests(batch.requests(),
                                                    commit=False)
        cluster.service_time_us(batch)
        # The hot table's replica choice shifted with the counters ...
        assert first_assignment != second_assignment
        # ... so the second pass must be a distinct cache entry.
        assert cluster.service_stats()["cache"]["misses"] == 2

    def test_reset_clears_routing_state(self):
        queries = make_skewed_queries(num_queries=8)
        sharder = self.make_replicated(queries)
        cluster = self.make_cluster(sharder)
        probe = [r for query in queries for r in query.requests]
        fresh = self.make_replicated(queries).assign_requests(probe,
                                                              commit=False)
        cluster.simulate(queries)
        assert sharder.assign_requests(probe, commit=False) != fresh
        cluster.reset()
        assert sharder.assign_requests(probe, commit=False) == fresh

    def test_shard_policy_constructor_parameter(self):
        cluster = self.make_cluster(shard_policy="hash")
        assert cluster.sharder.policy == "hash"
        with pytest.raises(ValueError):
            self.make_cluster(shard_policy="load-aware")
        with pytest.raises(ValueError):
            self.make_cluster(sharder=TableSharder(4),
                              shard_policy="hash")

    def test_sharder_size_mismatch(self):
        with pytest.raises(ValueError):
            ShardedServingCluster(
                num_nodes=2, node_system="recnmp-base",
                sharder=ReplicatedTableSharder(4, SKEWED_LOADS),
                address_of=address_of, vector_size_bytes=VECTOR_BYTES)


class TestPerTableQueryShapes:
    def test_per_table_pooling_factors(self):
        queries = make_skewed_queries(num_queries=2)
        for query in queries:
            lookups = {r.table_id: r.total_lookups
                       for r in query.requests}
            assert lookups[0] == 2 * 64
            assert lookups[7] == 2 * 4

    def test_shape_length_mismatch_raises(self):
        traces = make_production_table_traces(
            num_lookups_per_table=400, num_rows=NUM_ROWS, num_tables=3,
            seed=0)
        with pytest.raises(ValueError):
            queries_from_traces(traces, 2, [0.0, 1.0],
                                batch_size=2, pooling_factor=[4, 4])
        with pytest.raises(ValueError):
            queries_from_traces(traces, 2, [0.0, 1.0],
                                batch_size=[2, 2], pooling_factor=4)


class TestRequestOverheadCalibration:
    def build_node(self, name="recnmp-base"):
        from repro.systems import build_system

        return build_system(name, address_of=address_of,
                            vector_size_bytes=VECTOR_BYTES,
                            compare_baseline=False)

    def make_request(self, poolings=32, pooling_factor=20, seed=0):
        rng = np.random.default_rng(seed)
        return SLSRequest(
            table_id=0,
            indices=rng.integers(0, NUM_ROWS,
                                 size=poolings * pooling_factor),
            lengths=np.full(poolings, pooling_factor))

    def test_calibration_is_finite_and_deterministic(self):
        from repro.serving import calibrate_request_overhead_lookups

        node = self.build_node()
        request = self.make_request()
        first = calibrate_request_overhead_lookups(node, request)
        second = calibrate_request_overhead_lookups(node, request)
        assert np.isfinite(first)
        assert first >= 0.0
        assert first == second

    def test_simulated_node_charges_real_dispatch_overhead(self):
        """RecNMP pays per-request cost, so the measurement is > 0.

        Split at serving-request granularity (4 poolings per request vs
        the 8-pooling NMP packets): the underfilled packets of small
        requests are exactly the dispatch overhead being priced.
        """
        from repro.serving import calibrate_request_overhead_lookups

        overhead = calibrate_request_overhead_lookups(
            self.build_node(), self.make_request(), splits=8)
        assert overhead > 0.0

    def test_from_queries_merges_small_requests(self):
        from repro.serving import calibrate_request_overhead_from_queries

        traces = make_production_table_traces(
            num_lookups_per_table=400, num_rows=NUM_ROWS, num_tables=2,
            seed=0)
        # Each query carries 2-pooling requests -- too narrow alone, but
        # the sample merges per table into a calibratable request.
        queries = queries_from_traces(
            traces, 8, [float(i) for i in range(8)], batch_size=2,
            pooling_factor=4)
        overhead = calibrate_request_overhead_from_queries(
            self.build_node(), queries)
        assert np.isfinite(overhead)
        assert overhead >= 0.0

    def test_single_pooling_sample_returns_neutral_price(self):
        from repro.serving import calibrate_request_overhead_from_queries

        traces = make_production_table_traces(
            num_lookups_per_table=50, num_rows=NUM_ROWS, num_tables=1,
            seed=0)
        queries = queries_from_traces(traces, 1, [0.0], batch_size=1,
                                      pooling_factor=4)
        assert calibrate_request_overhead_from_queries(
            self.build_node(), queries) == 0.0

    def test_validation(self):
        from repro.serving import calibrate_request_overhead_lookups

        node = self.build_node()
        with pytest.raises(ValueError, match="splits"):
            calibrate_request_overhead_lookups(node, self.make_request(),
                                               splits=1)
        with pytest.raises(ValueError, match="poolings"):
            calibrate_request_overhead_lookups(
                node, self.make_request(poolings=2), splits=4)

    def test_override_constant_still_honoured(self):
        """The hand-set constant remains the override path."""
        queries = make_skewed_queries()
        sharder = ReplicatedTableSharder.from_queries(
            4, queries, request_overhead_lookups=80.0)
        assert sharder.request_overhead_lookups == 80.0
