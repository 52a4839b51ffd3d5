"""Tests for repro.perf.colocation and repro.perf.end_to_end."""

import pytest

from repro.dlrm.config import RM1_LARGE, RM1_SMALL, RM2_LARGE, RM2_SMALL
from repro.perf.colocation import ColocationModel
from repro.perf.end_to_end import EndToEndModel, latency_throughput_curve
from repro.perf.operator_latency import OperatorLatencyModel


class TestColocationModel:
    def test_no_colocation_no_degradation(self):
        model = ColocationModel()
        assert model.baseline_slowdown(10 * 1024 * 1024, 1) == \
            pytest.approx(1.0)

    def test_degradation_grows_with_colocation(self):
        model = ColocationModel()
        weights = RM2_LARGE.fc_weight_bytes()
        slowdowns = [model.baseline_slowdown(weights, d) for d in
                     (1, 2, 4, 8)]
        assert slowdowns == sorted(slowdowns)

    def test_large_fc_suffers_more_than_small_fc(self):
        model = ColocationModel()
        large = model.baseline_slowdown(RM2_LARGE.fc_weight_bytes(), 8)
        small = model.baseline_slowdown(256 * 1024, 8)
        assert large > small

    def test_worst_case_degradation_near_paper_value(self):
        # Fig. 17(b): up to ~30% degradation for RM2-large TopFC.
        model = ColocationModel()
        worst = model.baseline_slowdown(RM2_LARGE.fc_weight_bytes(), 8,
                                        pooling_factor=160)
        assert 1.2 < worst < 1.4

    def test_l2_resident_fc_barely_affected(self):
        # ~4% for FCs that fit in L2 (BottomFC, RM1 TopFC).
        model = ColocationModel()
        slowdown = model.baseline_slowdown(512 * 1024, 8)
        assert slowdown < 1.06

    def test_recnmp_removes_most_contention(self):
        model = ColocationModel()
        weights = RM2_LARGE.fc_weight_bytes()
        baseline = model.baseline_slowdown(weights, 8)
        relieved = model.recnmp_slowdown(weights, 8)
        assert relieved < baseline
        improvement = 1.0 - relieved / baseline
        # Fig. 17: 12-30% improvement for LLC-resident FCs.
        assert 0.1 < improvement < 0.35

    def test_fc_speedup_from_offload(self):
        model = ColocationModel()
        speedup = model.fc_speedup_from_offload(RM2_LARGE.fc_weight_bytes(), 8)
        assert speedup > 1.1

    def test_evaluate_sweep(self):
        model = ColocationModel()
        results = model.evaluate("RM2-large TopFC",
                                 RM2_LARGE.fc_weight_bytes(), [1, 2, 4, 8])
        assert len(results) == 4
        assert results[-1].recnmp_improvement >= results[0].recnmp_improvement
        assert all(r.fc_name == "RM2-large TopFC" for r in results)

    def test_pooling_increases_pressure(self):
        model = ColocationModel()
        weights = RM2_LARGE.fc_weight_bytes()
        assert model.baseline_slowdown(weights, 4, pooling_factor=160) > \
            model.baseline_slowdown(weights, 4, pooling_factor=40)

    def test_validation(self):
        model = ColocationModel()
        with pytest.raises(ValueError):
            model.baseline_slowdown(1024, 0)
        with pytest.raises(ValueError):
            model.baseline_slowdown(1024, 2, pooling_factor=0)
        with pytest.raises(ValueError):
            ColocationModel(max_llc_degradation=1.5)


class TestEndToEnd:
    def test_speedup_increases_with_sls_speedup(self):
        model = EndToEndModel()
        low = model.speedup(RM2_LARGE, 256, sls_speedup=2.0)
        high = model.speedup(RM2_LARGE, 256, sls_speedup=9.8)
        assert high.end_to_end_speedup > low.end_to_end_speedup

    def test_model_speedups_in_paper_band(self):
        # Fig. 18(a): with the 8-rank design every model gains 2.4-4.2x; the
        # RM2 class (more tables) gains at least as much as the matching RM1
        # class.  (Our structural cost model ranks RM2-small slightly above
        # RM2-large, consistent with the batch-8 SLS shares of Fig. 4 --
        # see EXPERIMENTS.md.)
        model = EndToEndModel()
        speedups = {config.name: model.speedup(config, 256, 9.8)
                    for config in (RM1_SMALL, RM1_LARGE, RM2_SMALL,
                                   RM2_LARGE)}
        for result in speedups.values():
            assert 2.0 < result.end_to_end_speedup < 7.0
        assert speedups["RM2-small"].end_to_end_speedup >= \
            speedups["RM1-small"].end_to_end_speedup
        assert speedups["RM2-large"].end_to_end_speedup >= 3.0

    def test_headline_speedup_in_paper_range(self):
        # The paper reports up to 4.2x end-to-end throughput improvement for
        # RM2-large with the 8-rank optimised design (9.8x SLS speedup).
        model = EndToEndModel()
        result = model.speedup(RM2_LARGE, 256, sls_speedup=9.8)
        assert 3.0 < result.end_to_end_speedup < 6.5

    def test_speedup_grows_with_batch(self):
        # Fig. 18(b): larger batches shift more time into SLS -> more gain.
        model = EndToEndModel()
        assert model.speedup(RM1_LARGE, 256, 9.8).end_to_end_speedup > \
            model.speedup(RM1_LARGE, 8, 9.8).end_to_end_speedup

    def test_colocation_adds_fc_speedup(self):
        model = EndToEndModel()
        alone = model.speedup(RM2_LARGE, 64, 9.8, colocation_degree=1)
        colocated = model.speedup(RM2_LARGE, 64, 9.8, colocation_degree=8)
        assert colocated.non_sls_speedup > alone.non_sls_speedup
        assert colocated.end_to_end_speedup > alone.end_to_end_speedup

    def test_speedup_bounded_by_amdahl(self):
        model = EndToEndModel()
        result = model.speedup(RM1_SMALL, 8, sls_speedup=1000.0)
        assert result.end_to_end_speedup < 1.0 / (1.0 - result.sls_fraction) \
            + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            EndToEndModel().speedup(RM1_SMALL, 8, sls_speedup=0)


class TestLatencyThroughput:
    def test_colocation_raises_throughput_and_latency(self):
        latency_model = OperatorLatencyModel()
        points = latency_throughput_curve(latency_model, RM2_SMALL, 64,
                                          [1, 2, 4, 8])
        latencies = [p["latency_us"] for p in points]
        throughputs = [p["throughput_inferences_per_s"] for p in points]
        assert latencies == sorted(latencies)
        assert throughputs == sorted(throughputs)

    def test_recnmp_improves_both_axes(self):
        latency_model = OperatorLatencyModel()
        host = latency_throughput_curve(latency_model, RM2_SMALL, 64,
                                        [1, 2, 4], sls_speedup=1.0)
        nmp = latency_throughput_curve(latency_model, RM2_SMALL, 64,
                                       [1, 2, 4], sls_speedup=8.0,
                                       use_recnmp=True)
        for host_point, nmp_point in zip(host, nmp):
            assert nmp_point["latency_us"] < host_point["latency_us"]
            assert nmp_point["throughput_inferences_per_s"] > \
                host_point["throughput_inferences_per_s"]

    def test_locality_bonus_fades_with_colocation(self):
        # Fig. 18(c): the production-trace advantage wears off as co-location
        # grows.
        latency_model = OperatorLatencyModel()
        random_curve = latency_throughput_curve(latency_model, RM1_LARGE, 64,
                                                [1, 8], locality_bonus=1.0)
        production = latency_throughput_curve(latency_model, RM1_LARGE, 64,
                                              [1, 8], locality_bonus=1.2)
        gain_at_1 = (random_curve[0]["latency_us"]
                     / production[0]["latency_us"])
        gain_at_8 = (random_curve[1]["latency_us"]
                     / production[1]["latency_us"])
        assert gain_at_1 > gain_at_8 > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            latency_throughput_curve(OperatorLatencyModel(), RM1_SMALL, 8,
                                     [0])
