"""Tests for the reference DDR4 rank of tests/ddr4_reference.py."""

import pytest

from ddr4_reference import CommandType, Rank
from repro.dram.timing import DDR4_2400


@pytest.fixture
def rank():
    return Rank(DDR4_2400)


class TestRankStructure:
    def test_bank_count(self, rank):
        assert len(rank.banks) == 16

    def test_bank_lookup(self, rank):
        bank = rank.bank(2, 3)
        assert bank.bank_group == 2
        assert bank.bank_index == 3

    def test_bank_lookup_out_of_range(self, rank):
        with pytest.raises(IndexError):
            rank.bank(4, 0)
        with pytest.raises(IndexError):
            rank.bank(0, 4)

    def test_rejects_bad_timing(self):
        with pytest.raises(TypeError):
            Rank("nope")

    def test_rejects_bad_bank_counts(self):
        with pytest.raises(ValueError):
            Rank(DDR4_2400, num_bank_groups=0)


class TestRankTiming:
    def test_trrd_short_across_bank_groups(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        ready = rank.earliest_issue_cycle(CommandType.ACT, 1, 0, 0)
        assert ready == DDR4_2400.tRRD_S

    def test_trrd_long_same_bank_group(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        ready = rank.earliest_issue_cycle(CommandType.ACT, 0, 1, 0)
        assert ready == DDR4_2400.tRRD_L

    def test_tfaw_limits_fifth_activate(self, rank):
        # Four ACTs to different banks as fast as tRRD allows.
        cycle = 0
        for i in range(4):
            bank_group = i % 4
            cycle = rank.earliest_issue_cycle(CommandType.ACT, bank_group, i // 4,
                                              cycle)
            rank.issue(CommandType.ACT, bank_group, i // 4, 1, cycle)
        # The fifth ACT must wait for the tFAW window of the first.
        ready = rank.earliest_issue_cycle(CommandType.ACT, 0, 2, cycle)
        assert ready >= rank._act_history[0] + DDR4_2400.tFAW

    def test_tccd_spacing(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        rank.issue(CommandType.ACT, 1, 0, 1, DDR4_2400.tRRD_S)
        first_rd = rank.earliest_issue_cycle(CommandType.RD, 0, 0, 0)
        rank.issue(CommandType.RD, 0, 0, 1, first_rd)
        # Same bank group -> tCCD_L; different -> tCCD_S.
        same_group = rank.earliest_issue_cycle(CommandType.RD, 0, 0,
                                               first_rd)
        other_group = rank.earliest_issue_cycle(CommandType.RD, 1, 0,
                                                first_rd)
        assert same_group >= first_rd + DDR4_2400.tCCD_L
        assert other_group >= first_rd + DDR4_2400.tCCD_S

    def test_data_bus_serialises_bursts(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        rank.issue(CommandType.ACT, 1, 0, 1, DDR4_2400.tRRD_S)
        rd1_cycle = rank.earliest_issue_cycle(CommandType.RD, 0, 0, 0)
        done1 = rank.issue(CommandType.RD, 0, 0, 1, rd1_cycle)
        rd2_cycle = rank.earliest_issue_cycle(CommandType.RD, 1, 0, rd1_cycle)
        done2 = rank.issue(CommandType.RD, 1, 0, 1, rd2_cycle)
        # Second burst cannot finish before the first plus one burst length.
        assert done2 >= done1 + DDR4_2400.tBL

    def test_illegal_issue_raises(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        with pytest.raises(RuntimeError):
            rank.issue(CommandType.ACT, 0, 1, 1, 1)   # violates tRRD_L

    def test_stats_aggregation(self, rank):
        rank.issue(CommandType.ACT, 0, 0, 1, 0)
        rd = rank.earliest_issue_cycle(CommandType.RD, 0, 0, 0)
        rank.issue(CommandType.RD, 0, 0, 1, rd)
        stats = rank.stats()
        assert stats["activations"] == 1
        assert stats["reads"] == 1
