"""Tests for repro.core.ca_bandwidth, energy, and area_power."""

import pytest

from repro.core.area_power import AreaPowerModel
from repro.core.ca_bandwidth import CABandwidthModel
from repro.core.energy import NMPEnergyParameters, RecNMPEnergyModel


class TestCABandwidth:
    def test_worst_case_64b_utilization(self):
        # Section III-B: 64 B vectors with no locality consume 75% of the
        # C/A bandwidth (3 commands per 4-cycle burst window).
        model = CABandwidthModel()
        assert model.conventional_commands_per_vector(64) == 3
        assert model.conventional_ca_utilization(64) == pytest.approx(0.75)
        assert model.conventional_max_parallel_ranks(64) == 1

    def test_expansion_factor_is_8x_for_64b(self):
        model = CABandwidthModel()
        assert model.nmp_max_parallel_ranks(64) == 8
        assert model.expansion_factor(64) == pytest.approx(8.0)

    def test_larger_vectors_expand_more_or_equal(self):
        model = CABandwidthModel()
        assert model.expansion_factor(256) >= model.expansion_factor(64)

    def test_row_hits_reduce_command_count(self):
        model = CABandwidthModel()
        assert model.conventional_commands_per_vector(
            64, row_hit_fraction=1.0) == 1
        assert model.conventional_commands_per_vector(
            64, row_hit_fraction=0.5) == 2

    def test_summary_fields(self):
        summary = CABandwidthModel().summary(64)
        assert summary["instruction_bits"] == 79
        assert summary["nmp_max_parallel_ranks"] == 8

    def test_validation(self):
        model = CABandwidthModel()
        with pytest.raises(ValueError):
            model.conventional_commands_per_vector(100)
        with pytest.raises(ValueError):
            model.conventional_commands_per_vector(64, row_hit_fraction=1.5)
        with pytest.raises(ValueError):
            CABandwidthModel(nmp_insts_per_cycle=0)


class TestEnergyModel:
    def test_baseline_energy_components(self):
        model = RecNMPEnergyModel()
        report = model.baseline_energy(num_lookups=100, vector_bytes=64,
                                       activations=100, elapsed_ns=1000.0,
                                       active_ranks=8)
        assert report.activate_nj == pytest.approx(100 * 2.1)
        assert report.offchip_io_nj > 0
        assert report.rankcache_nj == 0.0

    def test_recnmp_moves_less_offchip_data(self):
        model = RecNMPEnergyModel()
        baseline = model.baseline_energy(num_lookups=1000, vector_bytes=64,
                                         activations=1000, elapsed_ns=1e4,
                                         active_ranks=8)
        recnmp = model.recnmp_energy(num_lookups=1000, vector_bytes=64,
                                     activations=800, cache_hits=200,
                                     elapsed_ns=2e3, num_outputs=10,
                                     active_ranks=8)
        assert recnmp.offchip_io_nj < baseline.offchip_io_nj
        assert recnmp.total_nj < baseline.total_nj

    def test_savings_in_papers_ballpark(self):
        # With a ~20% hit rate and a 5x faster execution the savings land in
        # the vicinity of the paper's 45.8%.
        model = RecNMPEnergyModel()
        baseline = model.baseline_energy(num_lookups=10_000, vector_bytes=128,
                                         activations=9_000, elapsed_ns=1e5,
                                         active_ranks=8)
        recnmp = model.recnmp_energy(num_lookups=10_000, vector_bytes=128,
                                     activations=7_000, cache_hits=2_000,
                                     elapsed_ns=2e4, num_outputs=100,
                                     active_ranks=8)
        savings = 1.0 - recnmp.total_nj / baseline.total_nj
        assert 0.3 < savings < 0.7

    def test_cache_hits_reduce_dram_energy(self):
        model = RecNMPEnergyModel()
        cold = model.recnmp_energy(1000, 64, 1000, cache_hits=0,
                                   elapsed_ns=1e3, num_outputs=10)
        warm = model.recnmp_energy(1000, 64, 600, cache_hits=400,
                                   elapsed_ns=1e3, num_outputs=10)
        assert warm.dram_read_nj < cold.dram_read_nj

    def test_weighted_adds_multiplier_energy(self):
        model = RecNMPEnergyModel()
        plain = model.recnmp_energy(100, 64, 100, 0, 1e3, 1, weighted=False)
        weighted = model.recnmp_energy(100, 64, 100, 0, 1e3, 1, weighted=True)
        assert weighted.compute_nj > plain.compute_nj

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NMPEnergyParameters(fp32_add_pj=-1)


class TestAreaPower:
    def test_recnmp_base_matches_table2(self):
        report = AreaPowerModel.recnmp_base().estimate()
        assert report.area_mm2 == pytest.approx(0.34, abs=0.01)
        assert report.power_mw == pytest.approx(151.3, abs=0.5)

    def test_recnmp_opt_matches_table2(self):
        report = AreaPowerModel.recnmp_opt().estimate()
        assert report.area_mm2 == pytest.approx(0.54, abs=0.01)
        assert report.power_mw == pytest.approx(184.2, abs=0.5)

    def test_chameleon_reference(self):
        report = AreaPowerModel.chameleon_reference()
        assert report.area_mm2 == pytest.approx(8.34)

    def test_fraction_of_chameleon_and_dimm_power(self):
        # The paper: RecNMP is 4.1%/6.5% of Chameleon's area and 4.6-5.9% of
        # its power; the PU is a small fraction of a DIMM's 13 W budget.
        base = AreaPowerModel.recnmp_base().estimate()
        opt = AreaPowerModel.recnmp_opt().estimate()
        chameleon = AreaPowerModel.chameleon_reference()
        assert base.area_mm2 / chameleon.area_mm2 == pytest.approx(0.041,
                                                                   abs=0.005)
        assert opt.area_mm2 / chameleon.area_mm2 == pytest.approx(0.065,
                                                                  abs=0.005)
        assert 0.04 < base.power_mw / chameleon.power_mw < 0.07
        assert 0.04 < opt.power_mw / chameleon.power_mw < 0.07
        assert base.power_fraction_of_dimm() < 0.02
        assert base.area_fraction_of_buffer_chip() < 0.01

    def test_overhead_scales_with_ranks(self):
        two = AreaPowerModel.recnmp_opt(num_ranks=2).estimate()
        four = AreaPowerModel.recnmp_opt(num_ranks=4).estimate()
        assert four.area_mm2 > two.area_mm2
        assert four.power_mw > two.power_mw

    def test_recnmp_much_smaller_than_chameleon(self):
        opt = AreaPowerModel.recnmp_opt().estimate()
        chameleon = AreaPowerModel.chameleon_reference()
        assert opt.area_mm2 < chameleon.area_mm2 / 10
        assert opt.power_mw < chameleon.power_mw / 10

    def test_comparison_table_keys(self):
        table = AreaPowerModel.comparison_table()
        assert set(table) == {"RecNMP-base", "RecNMP-opt", "Chameleon"}

    def test_validation(self):
        with pytest.raises(ValueError):
            AreaPowerModel(num_ranks=0)
        with pytest.raises(ValueError):
            AreaPowerModel(rankcache_kb=-1)
