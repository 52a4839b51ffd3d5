"""Tests for the reference DDR4 bank of tests/ddr4_reference.py."""

import pytest

from ddr4_reference import Bank, CommandType
from repro.dram.timing import DDR4_2400


@pytest.fixture
def bank():
    return Bank(DDR4_2400, bank_group=0, bank_index=0)


class TestBankStateMachine:
    def test_initially_closed(self, bank):
        assert bank.is_row_closed()
        assert not bank.is_row_hit(0)

    def test_required_commands(self, bank):
        assert bank.required_commands(5) == [CommandType.ACT, CommandType.RD]
        bank.issue_activate(5, 0)
        assert bank.required_commands(5) == [CommandType.RD]
        assert bank.required_commands(9) == [CommandType.PRE, CommandType.ACT,
                                             CommandType.RD]

    def test_activate_opens_row(self, bank):
        bank.issue_activate(7, 0)
        assert bank.is_row_hit(7)
        assert not bank.is_row_closed()
        assert bank.activations == 1

    def test_activate_twice_without_precharge_fails(self, bank):
        bank.issue_activate(7, 0)
        with pytest.raises(RuntimeError):
            bank.issue_activate(8, DDR4_2400.tRC + 1)

    def test_read_requires_open_row(self, bank):
        with pytest.raises(RuntimeError):
            bank.issue_read(3, 0)

    def test_read_respects_trcd(self, bank):
        bank.issue_activate(3, 0)
        # RD before tRCD has elapsed must be rejected.
        with pytest.raises(RuntimeError):
            bank.issue_read(3, DDR4_2400.tRCD - 1)
        done = bank.issue_read(3, DDR4_2400.tRCD)
        assert done == DDR4_2400.tRCD + DDR4_2400.tCL + DDR4_2400.tBL

    def test_precharge_respects_tras(self, bank):
        bank.issue_activate(3, 0)
        with pytest.raises(RuntimeError):
            bank.issue_precharge(DDR4_2400.tRAS - 1)
        bank.issue_precharge(DDR4_2400.tRAS)
        assert bank.is_row_closed()

    def test_act_after_precharge_respects_trp(self, bank):
        bank.issue_activate(3, 0)
        bank.issue_precharge(DDR4_2400.tRAS)
        early = DDR4_2400.tRAS + DDR4_2400.tRP - 1
        assert not bank.can_issue(CommandType.ACT, early)
        assert bank.can_issue(CommandType.ACT, early + 1)

    def test_act_to_act_respects_trc(self, bank):
        bank.issue_activate(3, 0)
        bank.issue_precharge(DDR4_2400.tRAS)
        # tRC=55 > tRAS+tRP=55, equal here, so ACT allowed at 55.
        assert bank.earliest_issue_cycle(CommandType.ACT, 0) == DDR4_2400.tRC

    def test_consecutive_reads_respect_tccd(self, bank):
        bank.issue_activate(3, 0)
        bank.issue_read(3, DDR4_2400.tRCD)
        early = DDR4_2400.tRCD + DDR4_2400.tCCD_L - 1
        assert not bank.can_issue(CommandType.RD, early)
        assert bank.can_issue(CommandType.RD, early + 1)

    def test_stats_counters(self, bank):
        bank.record_access_outcome(1)            # closed -> miss
        bank.issue_activate(1, 0)
        bank.record_access_outcome(1)            # hit
        bank.record_access_outcome(2)            # conflict
        stats = bank.stats()
        assert stats["row_hits"] == 1
        assert stats["row_misses"] == 1
        assert stats["row_conflicts"] == 1

    def test_rejects_bad_timing_type(self):
        with pytest.raises(TypeError):
            Bank("not timing", 0, 0)
