"""Tests for repro.core.backend (parallel execution backends)."""

import pickle

import numpy as np
import pytest

from repro.core.backend import (
    BACKENDS,
    ParallelBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.core.multi_channel import MultiChannelRecNMP
from repro.core.simulator import RecNMPConfig
from repro.dlrm.operators import SLSRequest
from repro.perf.baseline_cache import (
    baseline_cache_stats,
    clear_baseline_cache,
    export_baseline_entries,
    merge_baseline_entries,
)
from repro.systems.base import TableLayout

NUM_ROWS = 8_000
VECTOR_BYTES = 128
LAYOUT = TableLayout(num_rows=NUM_ROWS, vector_bytes=VECTOR_BYTES)
# Every registered backend except the serial reference.
PARALLEL_BACKENDS = tuple(sorted(set(BACKENDS) - {"serial"}))


def _requests(num_tables=4, batch=4, pooling=12, seed=0):
    rng = np.random.default_rng(seed)
    return [SLSRequest(table_id=t,
                       indices=rng.integers(0, NUM_ROWS,
                                            size=batch * pooling),
                       lengths=np.full(batch, pooling))
            for t in range(num_tables)]


def _coordinator(backend, num_channels=3, **config_overrides):
    defaults = dict(num_dimms=1, ranks_per_dimm=2,
                    vector_size_bytes=VECTOR_BYTES)
    defaults.update(config_overrides)
    return MultiChannelRecNMP(num_channels=num_channels,
                              channel_config=RecNMPConfig(**defaults),
                              address_of=LAYOUT.address_of,
                              backend=backend)


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_names_resolve(self, name):
        backend = resolve_backend(name, max_workers=2)
        assert backend.name == name
        assert backend.max_workers == 2

    def test_class_resolves(self):
        assert isinstance(resolve_backend(SerialBackend), SerialBackend)

    def test_instance_passthrough(self):
        instance = SerialBackend()
        assert resolve_backend(instance) is instance

    def test_instance_with_max_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend(SerialBackend(), max_workers=2)

    def test_unknown_name_rejected(self):
        # Removed backend names fail like any unknown name, and the error
        # lists exactly the backends that can be chosen.
        for name in ("gpu", "thread", "shared-memory"):
            with pytest.raises(ValueError) as excinfo:
                resolve_backend(name)
            assert str(excinfo.value) == (
                "unknown backend %r; available: process, serial" % name)

    @pytest.mark.parametrize("name", ["thread", "shared-memory"])
    def test_removed_backend_not_registered(self, name):
        assert name not in BACKENDS
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(name, max_workers=2)

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ValueError):
            ProcessBackend(max_workers=0)

    def test_describe(self):
        assert ProcessBackend(max_workers=3).describe() == \
            "process(max_workers=3)"
        assert SerialBackend().describe() == "serial"


class TestPickleRoundtrip:
    """The process backend's work units must survive pickling unchanged."""

    def test_config_roundtrip(self):
        config = RecNMPConfig(num_dimms=2, ranks_per_dimm=2,
                              vector_size_bytes=128,
                              scheduling_policy="fcfs",
                              rank_assignment="page-coloring")
        assert pickle.loads(pickle.dumps(config)) == config

    def test_request_roundtrip(self):
        request = _requests(num_tables=1)[0]
        clone = pickle.loads(pickle.dumps(request))
        assert clone.table_id == request.table_id
        np.testing.assert_array_equal(clone.indices, request.indices)
        np.testing.assert_array_equal(clone.lengths, request.lengths)

    def test_address_of_roundtrip(self):
        address_of = pickle.loads(pickle.dumps(LAYOUT.address_of))
        assert address_of(3, 17) == LAYOUT.address_of(3, 17)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_unpicklable_address_of_rejected(self, backend):
        # The lambda address-map regression: the process backend must
        # fail fast in the parent and *name* the offending input, not
        # die inside a pool worker.
        with MultiChannelRecNMP(
                num_channels=2,
                channel_config=RecNMPConfig(num_dimms=1, ranks_per_dimm=2),
                address_of=lambda table_id, row: row * 64,
                backend=backend) as coordinator:
            with pytest.raises(ValueError,
                               match="address_of callable"):
                coordinator.run_requests(_requests(num_tables=2, batch=1,
                                                   pooling=4),
                                         compare_baseline=False)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_unpicklable_config_field_named(self, backend):
        with MultiChannelRecNMP(
                num_channels=2,
                channel_config=RecNMPConfig(num_dimms=1, ranks_per_dimm=2),
                address_of=LAYOUT.address_of,
                backend=backend) as coordinator:
            # Poison one config field after construction: the preflight
            # must name it instead of blaming the whole work unit.
            coordinator.channel_config.opcode = lambda: None
            with pytest.raises(ValueError,
                               match="config field 'opcode'"):
                coordinator.run_requests(_requests(num_tables=2, batch=1,
                                                   pooling=4),
                                         compare_baseline=False)


class TestBackendEquivalence:
    """serial and process must be byte-identical per dispatch."""

    @classmethod
    def setup_class(cls):
        cls.requests = _requests(num_tables=6, batch=4, pooling=16, seed=3)
        coordinator = _coordinator("serial")
        cls.reference = coordinator.run_requests(cls.requests,
                                                 compare_baseline=True)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_identical_results(self, backend):
        coordinator = _coordinator(backend)
        result = coordinator.run_requests(self.requests,
                                          compare_baseline=True)
        reference = self.reference
        assert result.total_cycles == reference.total_cycles
        assert result.per_channel_cycles == reference.per_channel_cycles
        assert result.per_channel_instructions == \
            reference.per_channel_instructions
        assert result.energy_nj == reference.energy_nj
        assert result.cache_hit_rate == reference.cache_hit_rate
        assert result.baseline_cycles == reference.baseline_cycles
        assert result.baseline_energy_nj == reference.baseline_energy_nj
        assert result.speedup_vs_baseline == reference.speedup_vs_baseline
        coordinator.close()

    def test_jobs_bound_respected(self):
        with _coordinator(ProcessBackend(max_workers=1)) as coordinator:
            result = coordinator.run_requests(self.requests,
                                              compare_baseline=False)
            assert coordinator.backend._pool_workers == 1
        assert result.total_cycles == self.reference.total_cycles

    def test_weighted_and_metadata_requests_roundtrip(self):
        # Float32 weights and request metadata must survive the trip to
        # the worker processes unchanged.
        rng = np.random.default_rng(5)
        requests = []
        for table in range(2):
            indices = rng.integers(0, NUM_ROWS, size=24)
            requests.append(SLSRequest(
                table_id=table, indices=indices,
                lengths=np.full(2, 12),
                weights=rng.random(24).astype(np.float32),
                metadata={"origin": "test"}))
        results = {}
        for backend in ("serial", "process"):
            with _coordinator(backend, num_channels=2) as coordinator:
                result = coordinator.run_requests(requests,
                                                  compare_baseline=False)
                results[backend] = (result.total_cycles,
                                    result.per_channel_cycles,
                                    result.energy_nj)
        assert results["process"] == results["serial"]

    def test_repeat_dispatch_reuses_pool(self):
        with _coordinator("process", num_channels=2) as coordinator:
            first = coordinator.run_requests(
                _requests(num_tables=2, batch=2, pooling=8, seed=1),
                compare_baseline=False)
            pool = coordinator.backend._pool
            second = coordinator.run_requests(
                _requests(num_tables=2, batch=2, pooling=8, seed=1),
                compare_baseline=False)
            assert coordinator.backend._pool is pool
        assert first.total_cycles == second.total_cycles

    def test_process_merges_worker_baseline_entries(self):
        clear_baseline_cache()
        try:
            coordinator = _coordinator("process", num_channels=2)
            coordinator.run_requests(
                _requests(num_tables=2, batch=2, pooling=8, seed=9),
                compare_baseline=True)
            stats = baseline_cache_stats()
            # Both channels simulated their baseline in workers; the
            # parent cache received the merged (key, result) pairs.
            assert stats["entries"] == 2
            assert stats["misses"] == 2
            coordinator.close()
        finally:
            clear_baseline_cache()


class TestContextManagers:
    def test_backend_context_manager_shuts_down(self):
        backend = ProcessBackend(max_workers=1)
        with backend as entered:
            assert entered is backend
            backend._ensure_pool(1)
            assert backend._pool is not None
        assert backend._pool is None

    def test_coordinator_context_manager(self):
        with _coordinator("serial", num_channels=2) as coordinator:
            result = coordinator.run_requests(
                _requests(num_tables=2, batch=1, pooling=4),
                compare_baseline=False)
        assert result.total_cycles > 0

    def test_system_context_manager(self):
        from repro.systems import build_system

        with build_system("recnmp-opt", table_rows=NUM_ROWS,
                          vector_size_bytes=VECTOR_BYTES,
                          compare_baseline=False) as system:
            result = system.run(_requests(num_tables=1, batch=1,
                                          pooling=4))
        assert result.total_cycles > 0


class TestNodeLevelServiceJobs:
    """The serving cluster's per-node shard fan-out (run_service_jobs)."""

    @staticmethod
    def _cluster(backend):
        from repro.serving import ShardedServingCluster

        return ShardedServingCluster(
            num_nodes=2, node_system="recnmp-opt",
            table_rows=NUM_ROWS, vector_size_bytes=VECTOR_BYTES,
            backend=backend)

    @staticmethod
    def _batch():
        from repro.serving import BatchingFrontend
        from repro.serving.arrival import queries_from_traces
        from repro.traces import random_trace

        traces = [random_trace(NUM_ROWS, 400, table_id=t, seed=t)
                  for t in range(4)]
        queries = queries_from_traces(traces, 4, [0.0] * 4,
                                      batch_size=2, pooling_factor=10)
        [batch] = BatchingFrontend(max_queries=4).form_batches(queries)
        return batch

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_service_time_matches_serial(self, backend):
        batch = self._batch()
        with self._cluster("serial") as cluster:
            reference = cluster.service_time_us(batch)
        with self._cluster(backend) as cluster:
            assert cluster.service_time_us(batch) == reference

    def test_memoisation_stays_in_parent(self):
        batch = self._batch()
        with self._cluster("process") as cluster:
            first = cluster.service_time_us(batch)
            stats = cluster.service_stats()["cache"]
            assert stats["misses"] == 1
            assert cluster.service_time_us(batch) == first
            assert cluster.service_stats()["cache"]["hits"] == 1

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_unpicklable_node_override_named(self, backend):
        from repro.serving import ShardedServingCluster

        cluster = ShardedServingCluster(
            num_nodes=2, node_system="recnmp-opt",
            table_rows=NUM_ROWS, vector_size_bytes=VECTOR_BYTES,
            address_of=lambda table_id, row: row * 64,
            backend=backend)
        with cluster:
            with pytest.raises(ValueError,
                               match="node override 'address_of'"):
                cluster.service_time_us(self._batch())


class TestBaselineCacheMerge:
    def test_merge_entries_and_counters(self):
        clear_baseline_cache()
        try:
            merge_baseline_entries([("key-a", "result-a")], hits=3, misses=1)
            stats = baseline_cache_stats()
            assert stats == {"entries": 1, "hits": 3, "misses": 1}
            # Existing entries win on re-merge.
            merge_baseline_entries([("key-a", "other")])
            assert dict(export_baseline_entries())["key-a"] == "result-a"
        finally:
            clear_baseline_cache()
