"""Tests for the reference DDR4 channel model in ``ddr4_reference``."""

import pytest

from ddr4_reference import Channel, CommandType
from repro.dram.timing import DDR4_2400


@pytest.fixture
def channel():
    return Channel(DDR4_2400, num_dimms=2, ranks_per_dimm=2)


class TestChannelStructure:
    def test_rank_count(self, channel):
        assert channel.num_ranks == 4
        assert len(channel.ranks) == 4

    def test_global_rank_index(self, channel):
        assert channel.global_rank_index(0, 0) == 0
        assert channel.global_rank_index(0, 1) == 1
        assert channel.global_rank_index(1, 0) == 2
        assert channel.global_rank_index(1, 1) == 3

    def test_global_rank_index_bounds(self, channel):
        with pytest.raises(IndexError):
            channel.global_rank_index(2, 0)
        with pytest.raises(IndexError):
            channel.global_rank_index(0, 2)

    def test_rank_lookup_bounds(self, channel):
        with pytest.raises(IndexError):
            channel.rank(4)

    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            Channel(DDR4_2400, num_dimms=0)


class TestChannelBuses:
    def test_ca_bus_one_command_per_cycle(self, channel):
        channel.issue(CommandType.ACT, 0, 0, 0, 1, 0)
        assert not channel.ca_bus_free(0)
        assert channel.ca_bus_free(1)
        # A second command in the same cycle is illegal even to another rank.
        assert not channel.can_issue(CommandType.ACT, 1, 0, 0, 0)
        assert channel.can_issue(CommandType.ACT, 1, 0, 0, 1)

    def test_data_bus_shared_across_ranks(self, channel):
        channel.issue(CommandType.ACT, 0, 0, 0, 1, 0)
        channel.issue(CommandType.ACT, 1, 0, 0, 1, DDR4_2400.tRRD_S)
        rd_cycle = channel.earliest_issue_cycle(CommandType.RD, 0, 0, 0, 0)
        done0 = channel.issue(CommandType.RD, 0, 0, 0, 1, rd_cycle)
        rd_cycle_1 = channel.earliest_issue_cycle(CommandType.RD, 1, 0, 0,
                                                  rd_cycle + 1)
        done1 = channel.issue(CommandType.RD, 1, 0, 0, 1, rd_cycle_1)
        # The second rank's burst must wait for the shared bus plus the
        # rank-to-rank switch penalty.
        assert done1 >= done0 + DDR4_2400.tBL

    def test_illegal_issue_raises(self, channel):
        channel.issue(CommandType.ACT, 0, 0, 0, 1, 0)
        with pytest.raises(RuntimeError):
            channel.issue(CommandType.ACT, 1, 0, 0, 1, 0)

    def test_stats(self, channel):
        channel.issue(CommandType.ACT, 0, 0, 0, 1, 0)
        stats = channel.stats()
        assert stats["commands_issued"] == 1
        assert stats["activations"] == 1
