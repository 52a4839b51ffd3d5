"""Each DDR4 command is checked once, against the full layered set.

The reference channel's ``Channel.issue`` (``tests/ddr4_reference.py``)
evaluates ``Channel.earliest_issue_cycle`` (the shared C/A slot and data
bus over ``Rank`` over ``Bank``) and then applies the command without
re-checking it at the rank.  These properties drive a
channel through random legal ACT/RD/PRE prefixes and then try one more
command at a random cycle:

* ``Channel.issue`` succeeds iff the layered earliest issue cycle is at
  most the cycle, and a rejected command changes no channel, rank or bank
  state;
* ``Rank.issue`` called directly still rejects a command its own
  constraints forbid, with the same no-change guarantee.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ddr4_reference import Channel, CommandType
from rank_nmp_reference import ddr4_state
from repro.dram.timing import DDR4_2400

NUM_DIMMS = 2
RANKS_PER_DIMM = 2
NUM_RANKS = NUM_DIMMS * RANKS_PER_DIMM

#: A command's target and row, and how many cycles past its earliest
#: legal cycle it issues.  Three rows per bank give hits, misses and
#: conflicts; two bank groups of two banks give tRRD_L/S and tCCD_L/S.
STEPS = st.tuples(st.integers(0, NUM_RANKS - 1), st.integers(0, 1),
                  st.integers(0, 1), st.integers(0, 2), st.integers(0, 12))


def next_command(bank, row):
    """The command that moves a read of ``row`` on: RD on a row hit, ACT
    on a closed bank, PRE on a row conflict."""
    if bank.open_row == row:
        return CommandType.RD
    if bank.open_row is None:
        return CommandType.ACT
    return CommandType.PRE


def build(prefix):
    """A channel after issuing every step of ``prefix`` at its earliest
    legal cycle plus the step's delay."""
    channel = Channel(DDR4_2400, num_dimms=NUM_DIMMS,
                      ranks_per_dimm=RANKS_PER_DIMM)
    for rank_index, bank_group, bank_index, row, delay in prefix:
        bank = channel.ranks[rank_index].bank(bank_group, bank_index)
        command = next_command(bank, row)
        cycle = channel.earliest_issue_cycle(
            command, rank_index, bank_group, bank_index,
            channel.next_ca_free) + delay
        channel.issue(command, rank_index, bank_group, bank_index, row,
                      cycle)
    return channel


def snapshot(channel):
    """Every piece of channel, rank and bank state, statistics included:
    each rank's DDR4 state (:func:`~rank_nmp_reference.ddr4_state`) and
    its banks' statistics."""
    return (channel.next_ca_free, channel.next_data_free,
            channel._last_data_rank, channel.commands_issued,
            [(ddr4_state(rank),
              [tuple(bank.stats().values()) for bank in rank.banks])
             for rank in channel.ranks])


@settings(max_examples=150, deadline=None)
@given(prefix=st.lists(STEPS, max_size=24), final=STEPS,
       offset=st.integers(-4, 60))
def test_channel_issue_succeeds_iff_layered_check_allows(prefix, final,
                                                         offset):
    channel = build(prefix)
    rank_index, bank_group, bank_index, row, _ = final
    bank = channel.ranks[rank_index].bank(bank_group, bank_index)
    command = next_command(bank, row)
    cycle = max(0, channel.next_ca_free + offset)
    legal = channel.earliest_issue_cycle(
        command, rank_index, bank_group, bank_index, cycle) <= cycle
    before = snapshot(channel)
    if legal:
        channel.issue(command, rank_index, bank_group, bank_index, row,
                      cycle)
        assert channel.commands_issued == before[3] + 1
        assert channel.next_ca_free == cycle + 1
    else:
        with pytest.raises(RuntimeError, match="not ready on channel"):
            channel.issue(command, rank_index, bank_group, bank_index, row,
                          cycle)
        assert snapshot(channel) == before


@settings(max_examples=150, deadline=None)
@given(prefix=st.lists(STEPS, max_size=24), final=STEPS,
       offset=st.integers(-40, 40))
def test_direct_rank_issue_still_checks(prefix, final, offset):
    channel = build(prefix)
    rank_index, bank_group, bank_index, row, _ = final
    rank = channel.ranks[rank_index]
    command = next_command(rank.bank(bank_group, bank_index), row)
    cycle = max(0, channel.next_ca_free + offset)
    legal = rank.earliest_issue_cycle(command, bank_group, bank_index,
                                      cycle) <= cycle
    before = snapshot(channel)
    if legal:
        rank.issue(command, bank_group, bank_index, row, cycle)
    else:
        with pytest.raises(RuntimeError, match="not ready at cycle"):
            rank.issue(command, bank_group, bank_index, row, cycle)
        assert snapshot(channel) == before


def test_channel_rejects_what_the_rank_alone_allows():
    """The shared data bus is the channel's own constraint: rank 1 may
    read tRCD after its ACT, but rank 0's burst still holds the bus (plus
    the rank-to-rank switch), so the channel refuses and changes nothing.
    The same command is then legal once the bus frees."""
    timing = DDR4_2400
    channel = Channel(timing, num_dimms=1, ranks_per_dimm=2)
    channel.issue(CommandType.ACT, 0, 0, 0, 5, 0)
    channel.issue(CommandType.ACT, 1, 0, 0, 5, 1)
    channel.issue(CommandType.RD, 0, 0, 0, 5, timing.tRCD)
    cycle = timing.tRCD + 1
    assert channel.ranks[1].can_issue(CommandType.RD, 0, 0, cycle)
    assert not channel.can_issue(CommandType.RD, 1, 0, 0, cycle)
    before = snapshot(channel)
    with pytest.raises(RuntimeError, match="not ready on channel"):
        channel.issue(CommandType.RD, 1, 0, 0, 5, cycle)
    assert snapshot(channel) == before
    ready = channel.earliest_issue_cycle(CommandType.RD, 1, 0, 0, cycle)
    assert ready == timing.tRCD + timing.tBL + channel.rank_to_rank_penalty
    assert channel.issue(CommandType.RD, 1, 0, 0, 5, ready) == \
        ready + timing.tCL + timing.tBL


def test_rank_issue_rejects_an_act_inside_trrd():
    timing = DDR4_2400
    channel = Channel(timing, num_dimms=1, ranks_per_dimm=1)
    rank = channel.ranks[0]
    rank.issue(CommandType.ACT, 0, 0, 3, 0)
    before = snapshot(channel)
    with pytest.raises(RuntimeError, match="not ready at cycle"):
        rank.issue(CommandType.ACT, 0, 1, 3, timing.tRRD_L - 1)
    assert snapshot(channel) == before
    rank.issue(CommandType.ACT, 0, 1, 3, timing.tRRD_L)
