"""Tests for the batch-size-aware service-time models and the LRU cache."""

import pytest

from repro.perf.service_model import (
    ExactServiceModel,
    InterpolatingServiceModel,
    ServiceTimeModel,
    resolve_service_model,
)
from repro.serving import (
    BatchingFrontend,
    PoissonArrivalProcess,
    ServingQuery,
    ShardedServingCluster,
    qps_sweep,
    queries_from_traces,
)
from repro.traces import make_production_table_traces
from repro.utils.lru import LRUCache

NUM_ROWS = 512
VECTOR_BYTES = 64


def address_of(table_id, row):
    return (table_id * NUM_ROWS + row) * VECTOR_BYTES


def make_traces(num_tables=4, lookups=2000):
    return make_production_table_traces(
        num_lookups_per_table=lookups, num_rows=NUM_ROWS,
        num_tables=num_tables, seed=0)


def make_cluster(**overrides):
    return ShardedServingCluster(
        num_nodes=2, node_system="recnmp-base", address_of=address_of,
        vector_size_bytes=VECTOR_BYTES, **overrides)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh "a"
        cache.put("c", 3)                   # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_stats_and_clear(self):
        cache = LRUCache(max_entries=4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("missing") is None
        stats = cache.stats()
        assert stats == {"entries": 1, "max_entries": 4, "hits": 1,
                         "misses": 1}
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)


class TestServiceCacheBound:
    def test_cluster_cache_is_bounded(self):
        """Regression: _service_cache grew without limit on long replays."""
        cluster = make_cluster(service_cache_entries=2)
        queries = queries_from_traces(
            make_traces(), 6, [float(i) * 1000.0 for i in range(6)],
            batch_size=2, pooling_factor=4)
        frontend = BatchingFrontend(max_queries=1)
        cluster.simulate(queries, frontend=frontend)   # 6 distinct batches
        stats = cluster.service_stats()["cache"]
        assert stats["entries"] <= 2
        assert stats["misses"] == 6

    def test_reset_clears_cache(self):
        cluster = make_cluster()
        queries = queries_from_traces(
            make_traces(), 4, [float(i) for i in range(4)],
            batch_size=2, pooling_factor=4)
        cluster.simulate(queries)
        assert cluster.service_stats()["cache"]["entries"] > 0
        cluster.reset()
        assert cluster.service_stats()["cache"]["entries"] == 0


class TestResolution:
    def test_default_and_names(self):
        assert isinstance(resolve_service_model(None), ExactServiceModel)
        assert isinstance(resolve_service_model("exact"), ExactServiceModel)
        model = InterpolatingServiceModel(make_traces())
        assert resolve_service_model(model) is model
        assert isinstance(resolve_service_model(ExactServiceModel),
                          ExactServiceModel)

    def test_interp_requires_instance(self):
        with pytest.raises(ValueError):
            resolve_service_model("interp")
        with pytest.raises(ValueError):
            resolve_service_model("nope")

    def test_models_implement_interface(self):
        assert issubclass(ExactServiceModel, ServiceTimeModel)
        assert issubclass(InterpolatingServiceModel, ServiceTimeModel)


class TestExactModel:
    def test_matches_cluster_service_time(self):
        cluster = make_cluster()
        queries = queries_from_traces(
            make_traces(), 4, [float(i) for i in range(4)],
            batch_size=2, pooling_factor=4)
        batches = BatchingFrontend(max_queries=2).form_batches(queries)
        assert ExactServiceModel().service_times_us(cluster, batches) == \
            pytest.approx([cluster.service_time_us(batch)
                           for batch in batches])


class TestInterpolatingModel:
    def test_within_tolerance_of_exact(self):
        """Interpolated service times track the simulated ones."""
        traces = make_traces()
        cluster = make_cluster()
        queries = queries_from_traces(
            traces, 16, [float(i) * 50.0 for i in range(16)],
            batch_size=2, pooling_factor=8)
        batches = BatchingFrontend(max_queries=4,
                                   max_delay_us=100.0).form_batches(queries)
        model = InterpolatingServiceModel(
            traces, batch_sizes=(1, 2, 4, 8, 16))
        approx = model.service_times_us(cluster, batches)
        exact = [cluster.service_time_us(batch) for batch in batches]
        assert approx == pytest.approx(exact, rel=0.15)

    def test_calibration_is_amortised(self):
        """Many batches cost only the fixed calibration simulations."""
        traces = make_traces()
        cluster = make_cluster()
        queries = queries_from_traces(
            traces, 64, [float(i) * 10.0 for i in range(64)],
            batch_size=2, pooling_factor=8)
        batches = BatchingFrontend(max_queries=4).form_batches(queries)
        model = InterpolatingServiceModel(
            traces, batch_sizes=(1, 2, 4, 8))
        model.service_times_us(cluster, batches)
        stats = model.stats()
        assert stats["interpolated_calls"] == len(batches)
        assert stats["exact_calls"] <= 8      # calibration rows only
        # A second pass re-uses the calibrated grid entirely.
        model.service_times_us(cluster, batches)
        assert model.stats()["exact_calls"] == stats["exact_calls"]

    def test_extrapolates_beyond_grid(self):
        traces = make_traces()
        cluster = make_cluster()
        queries = queries_from_traces(
            traces, 12, [0.0] * 12, batch_size=4, pooling_factor=8)
        batches = BatchingFrontend(max_queries=12).form_batches(queries)
        assert len(batches) == 1
        # A 12-query batch; the batch-size grid stops at 4 queries.
        model = InterpolatingServiceModel(traces,
                                          batch_sizes=(1, 2, 4))
        [approx] = model.service_times_us(cluster, batches)
        exact = cluster.service_time_us(batches[0])
        assert approx == pytest.approx(exact, rel=0.35)
        assert model.stats()["extrapolated_batches"] == 1
        assert approx > model.service_times_us(
            cluster, BatchingFrontend(max_queries=2).form_batches(
                queries[:2]))[0]
        # The 2-query batch lies inside the grid: not counted.
        assert model.stats()["extrapolated_batches"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            InterpolatingServiceModel([])
        with pytest.raises(ValueError):
            InterpolatingServiceModel(make_traces(), batch_sizes=(4,))
        with pytest.raises(ValueError):
            InterpolatingServiceModel(make_traces(),
                                      batch_sizes=(0, 4))
        # Calibration traces too short for the observed request shape.
        short = make_traces(lookups=8)
        model = InterpolatingServiceModel(short, batch_sizes=(1, 2, 4))
        cluster = make_cluster()
        queries = queries_from_traces(make_traces(), 1, [0.0],
                                      batch_size=2, pooling_factor=8)
        batches = BatchingFrontend().form_batches(queries)
        with pytest.raises(ValueError):
            model.service_times_us(cluster, batches)

    def test_pooling_factor_grid_clamps_out_of_range(self):
        """An off-grid pooling factor uses the nearest row, not a global
        extrapolation across the whole pooling-factor range."""
        traces = make_traces()
        cluster = make_cluster()
        queries = queries_from_traces(traces, 2, [0.0, 0.0],
                                      batch_size=2, pooling_factor=4)
        batches = BatchingFrontend(max_queries=2).form_batches(queries)
        clamped = InterpolatingServiceModel(
            traces, batch_sizes=(1, 2, 4), pooling_factors=(8, 16))
        nearest_only = InterpolatingServiceModel(
            traces, batch_sizes=(1, 2, 4), pooling_factors=(8,))
        assert clamped.service_times_us(cluster, batches) == \
            pytest.approx(nearest_only.service_times_us(cluster, batches))
        # Only the pf=8 row was calibrated (3 grid points), not pf=16.
        assert clamped.stats()["exact_calls"] == 3
        # Above the grid clamps to the last row symmetrically.
        high = queries_from_traces(traces, 2, [0.0, 0.0],
                                   batch_size=2, pooling_factor=20)
        high_batches = BatchingFrontend(max_queries=2).form_batches(high)
        top_only = InterpolatingServiceModel(
            traces, batch_sizes=(1, 2, 4), pooling_factors=(16,))
        assert clamped.service_times_us(cluster, high_batches) == \
            pytest.approx(top_only.service_times_us(cluster, high_batches))

    def test_empty_request_batch_raises_value_error(self):
        """Regression: a batch whose queries carry no requests raised a
        bare ZeroDivisionError from the shape derivation."""
        batches = BatchingFrontend().form_batches(
            [ServingQuery(query_id=0, arrival_us=0.0, requests=[])])
        model = InterpolatingServiceModel(make_traces())
        with pytest.raises(ValueError, match="no SLS requests"):
            model.service_times_us(make_cluster(), batches)

    def test_qps_sweep_resolves_model_once(self):
        """A model passed by name/class is instantiated once per sweep,
        mirroring the engine handling."""
        instances = []

        class CountingModel(ExactServiceModel):
            def __init__(self):
                instances.append(self)

        cluster = make_cluster()
        traces = make_traces()

        def make_queries(qps):
            return queries_from_traces(
                traces, 4, PoissonArrivalProcess(rate_qps=qps, seed=3),
                batch_size=2, pooling_factor=4)

        reports = qps_sweep(cluster, make_queries,
                            [20_000.0, 30_000.0, 40_000.0],
                            service_model=CountingModel)
        assert len(reports) == 3
        assert len(instances) == 1

    def test_through_cluster_simulate(self):
        traces = make_traces()
        cluster = make_cluster()
        queries = queries_from_traces(
            traces, 12, PoissonArrivalProcess(rate_qps=30_000, seed=3),
            batch_size=2, pooling_factor=8)
        model = InterpolatingServiceModel(traces,
                                          batch_sizes=(1, 2, 4, 8))
        report = cluster.simulate(queries, engine="event",
                                  service_model=model)
        assert report.extras["service_model"] == "interp"
        assert report.mean_service_us > 0


class TestServiceTimeValidation:
    @pytest.mark.parametrize("engine", ["analytic", "event"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
    def test_bad_service_times_rejected(self, bad, engine):
        class BrokenModel(ServiceTimeModel):
            """10 us per batch, except ``bad`` for the third batch."""

            name = "broken"

            def __init__(self):
                self.calls = 0

            def service_times_us(self, cluster, batches):
                times = []
                for _ in range(len(batches)):
                    self.calls += 1
                    times.append(bad if self.calls == 3 else 10.0)
                return times

        queries = queries_from_traces(
            make_traces(), 12, PoissonArrivalProcess(rate_qps=30_000,
                                                     seed=3),
            batch_size=2, pooling_factor=4)
        with pytest.raises(ValueError,
                           match=r"model 'broken' returned .* batch 2;"):
            make_cluster().simulate(
                queries, engine=engine, service_model=BrokenModel(),
                frontend=BatchingFrontend(max_queries=2),
                stream_chunk=4)
