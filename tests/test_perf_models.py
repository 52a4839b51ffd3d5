"""Tests for repro.perf (system, roofline, bandwidth, operator latency)."""

import pytest

from repro.dlrm.config import RM1_LARGE, RM1_SMALL, RM2_LARGE, RM2_SMALL
from repro.perf.bandwidth import BandwidthSaturationModel
from repro.perf.operator_latency import OperatorLatencyModel
from repro.perf.roofline import RooflineModel, RooflinePoint
from repro.perf.system import SKYLAKE_SYSTEM, SystemParameters


class TestSystemParameters:
    def test_table1_values(self):
        assert SKYLAKE_SYSTEM.num_cores == 18
        assert SKYLAKE_SYSTEM.peak_bandwidth_gbps == pytest.approx(76.8)
        assert SKYLAKE_SYSTEM.measured_bandwidth_gbps == pytest.approx(62.1)
        assert SKYLAKE_SYSTEM.llc_mb == pytest.approx(24.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParameters(num_cores=0)
        with pytest.raises(ValueError):
            SystemParameters(measured_bandwidth_gbps=100.0,
                             peak_bandwidth_gbps=80.0)


class TestRoofline:
    def test_memory_bound_region(self):
        roofline = RooflineModel()
        assert roofline.is_memory_bound(0.25)
        assert not roofline.is_memory_bound(100.0)

    def test_attainable_flops(self):
        roofline = RooflineModel()
        assert roofline.attainable_flops(0.25) == pytest.approx(
            76.8e9 * 0.25)
        assert roofline.attainable_flops(1000.0) == pytest.approx(0.98e12)

    def test_sls_is_memory_bound_fc_grows_compute_bound(self):
        roofline = RooflineModel()
        latency = OperatorLatencyModel()
        small_batch = latency.operator_roofline_inputs(RM1_LARGE, 1)
        large_batch = latency.operator_roofline_inputs(RM1_LARGE, 256)
        sls_oi_small = small_batch["SLS"][0] / small_batch["SLS"][1]
        sls_oi_large = large_batch["SLS"][0] / large_batch["SLS"][1]
        fc_oi_small = small_batch["FC"][0] / small_batch["FC"][1]
        fc_oi_large = large_batch["FC"][0] / large_batch["FC"][1]
        # SLS operational intensity is low and flat; FC intensity grows.
        assert sls_oi_small == pytest.approx(sls_oi_large, rel=1e-6)
        assert roofline.is_memory_bound(sls_oi_large)
        assert fc_oi_large > 10 * fc_oi_small

    def test_lifted_roofline_speedup(self):
        roofline = RooflineModel()
        # In the bandwidth-bound region an 8x lift gives 8x higher bound.
        assert roofline.speedup_from_lift(0.25, 8.0) == pytest.approx(8.0)
        # In the compute-bound region lifting the memory roof does nothing.
        assert roofline.speedup_from_lift(1000.0, 8.0) == pytest.approx(1.0)

    def test_efficiency(self):
        roofline = RooflineModel()
        point = RooflinePoint(name="SLS", operational_intensity=0.25,
                              performance_flops=0.5 * 76.8e9 * 0.25)
        assert roofline.efficiency(point) == pytest.approx(0.5)

    def test_ridge_point_is_the_machine_balance(self):
        roofline = RooflineModel()
        # ~12.8 FLOP/byte: 980 GFLOP/s over 76.8 GB/s on Skylake.
        assert 10 < roofline.ridge_point < 15
        assert roofline.attainable_flops(roofline.ridge_point) == \
            pytest.approx(SKYLAKE_SYSTEM.peak_flops)
        assert roofline.is_memory_bound(0.99 * roofline.ridge_point)
        assert not roofline.is_memory_bound(roofline.ridge_point)

    def test_attainable_flops_monotone(self):
        roofline = RooflineModel()
        values = [roofline.attainable_flops(intensity)
                  for intensity in (0.1, 1.0, 10.0, 100.0)]
        assert values == sorted(values)

    def test_operator_point_constructor(self):
        roofline = RooflineModel()
        point = roofline.operator_point("FC", flops=1e9, bytes_moved=1e8,
                                        time_seconds=1e-3, batch_size=64)
        assert point.operational_intensity == pytest.approx(10.0)
        assert point.performance_flops == pytest.approx(1e12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RooflineModel().attainable_flops(0)
        with pytest.raises(ValueError):
            RooflineModel().lifted(0)
        with pytest.raises(ValueError):
            RooflinePoint(name="x", operational_intensity=0,
                          performance_flops=1)


class TestBandwidthSaturation:
    def test_bandwidth_monotone_in_threads(self):
        model = BandwidthSaturationModel()
        values = [model.achieved_bandwidth_gbps(t, 256) for t in range(1, 41)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bandwidth_bounded_by_measured_ceiling(self):
        model = BandwidthSaturationModel()
        assert model.achieved_bandwidth_gbps(100, 256) <= 62.1

    def test_saturation_point_matches_paper_shape(self):
        # Fig. 6: at batch 256, SLS threads pass 67.4% of peak around ~30
        # threads; smaller batches saturate later (or not at all).
        model = BandwidthSaturationModel()
        threads_256 = model.saturation_point(256)
        threads_64 = model.saturation_point(64)
        assert threads_256 is not None
        assert 10 <= threads_256 <= 40
        assert threads_64 is None or threads_64 > threads_256

    def test_latency_increases_sharply_near_saturation(self):
        model = BandwidthSaturationModel()
        low = model.access_latency_ns(2, 64)
        high = model.access_latency_ns(40, 256)
        assert high > 3 * low

    def test_zero_threads(self):
        model = BandwidthSaturationModel()
        assert model.achieved_bandwidth_gbps(0, 256) == 0.0
        assert model.access_latency_ns(0, 256) == model.unloaded_latency_ns

    def test_validation(self):
        model = BandwidthSaturationModel()
        with pytest.raises(ValueError):
            model.thread_demand_gbps(0)
        with pytest.raises(ValueError):
            model.achieved_bandwidth_gbps(-1, 8)
        with pytest.raises(ValueError):
            BandwidthSaturationModel(per_thread_gbps_at_batch_1=0)


class TestOperatorLatency:
    def test_sls_fraction_grows_with_batch(self):
        # Fig. 4: the SLS share of execution time grows with batch size.
        model = OperatorLatencyModel()
        for config in (RM1_SMALL, RM1_LARGE, RM2_SMALL, RM2_LARGE):
            small = model.breakdown(config, 8).sls_fraction
            large = model.breakdown(config, 256).sls_fraction
            assert large > small

    def test_sls_fraction_grows_with_table_count(self):
        model = OperatorLatencyModel()
        assert model.breakdown(RM2_LARGE, 8).sls_fraction > \
            model.breakdown(RM1_SMALL, 8).sls_fraction

    def test_sls_dominates_rm2_at_batch8(self):
        # Fig. 4: RM2 models spend the majority of their time in SLS even at
        # batch 8 (73.5% / 68.9% in the paper).
        model = OperatorLatencyModel()
        assert model.breakdown(RM2_SMALL, 8).sls_fraction > 0.5
        assert model.breakdown(RM2_LARGE, 8).sls_fraction > 0.5

    def test_rm2_large_slower_than_rm1_large(self):
        # Fig. 4: RM2-large is several times slower than RM1-large.
        model = OperatorLatencyModel()
        assert model.breakdown(RM2_LARGE, 64).total_us > \
            2 * model.breakdown(RM1_LARGE, 64).total_us

    def test_bandwidth_scale_shortens_sls(self):
        model = OperatorLatencyModel()
        assert model.sls_time_us(RM1_LARGE, 64, bandwidth_scale=2.0) == \
            pytest.approx(model.sls_time_us(RM1_LARGE, 64) / 2.0)

    def test_fractions_sum_to_one(self):
        breakdown = OperatorLatencyModel().breakdown(RM1_LARGE, 64)
        total = (breakdown.sls_fraction + breakdown.fc_fraction
                 + breakdown.other_us / breakdown.total_us)
        assert total == pytest.approx(1.0)

    def test_validation(self):
        model = OperatorLatencyModel()
        with pytest.raises(ValueError):
            model.breakdown(RM1_SMALL, 0)
        with pytest.raises(TypeError):
            model.breakdown("RM1", 8)
        with pytest.raises(ValueError):
            model.sls_time_us(RM1_SMALL, 8, bandwidth_scale=0)
        with pytest.raises(ValueError):
            OperatorLatencyModel(sls_effective_gbps=0)
