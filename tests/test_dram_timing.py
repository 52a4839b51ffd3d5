"""Tests for repro.dram.timing."""

import pytest

from repro.dram.timing import DDR4_2400, DDR4Timing


class TestDDR4Timing:
    def test_table1_defaults(self):
        # The defaults must match Table I of the paper.
        t = DDR4_2400
        assert t.tRC == 55
        assert t.tRCD == 16
        assert t.tCL == 16
        assert t.tRP == 16
        assert t.tBL == 4
        assert t.tCCD_S == 4
        assert t.tCCD_L == 6
        assert t.tRRD_S == 4
        assert t.tRRD_L == 6
        assert t.tFAW == 26

    def test_data_rate(self):
        assert DDR4_2400.data_rate_mts == pytest.approx(2400.0)

    def test_cycle_time(self):
        assert DDR4_2400.cycle_time_ns == pytest.approx(1000.0 / 1200.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            DDR4_2400.tRC = 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DDR4Timing(tRCD=0)
        with pytest.raises(ValueError):
            DDR4Timing(clock_mhz=-1)

    def test_rejects_inconsistent_ras(self):
        with pytest.raises(ValueError):
            DDR4Timing(tRAS=100, tRP=16, tRC=55)

    def test_custom_timing(self):
        slow = DDR4Timing(clock_mhz=800.0)
        assert slow.data_rate_mts == pytest.approx(1600.0)
        assert slow.cycle_time_ns > DDR4_2400.cycle_time_ns

