"""The FR-FCFS drain against the per-cycle layered reference.

``PerCycleController`` (``tests/ddr4_reference.py``) is the controller's
original loop: every memory cycle it rescans the read queue and asks the
layered ``Channel.can_issue`` -> ``Rank`` -> ``Bank`` checks whether each
request's next command may issue, then issues the FR-FCFS pick.  The
production controller runs one drain over flat state, jumps idle cycles
and reads readiness from a per-bank cache.  Both must produce identical
completion cycles, ``ControllerStats`` and elapsed cycles on any trace:
one channel or several, any population and queue depth, any outstanding
cap (above the queue depth too, where arrivals wait for admission), and
over two drains in a row, where the open rows and timing state of the
first carry into the second; under any drawn ``DDR4Timing`` with
``tRCD <= tRAS``, on traces crowded into a few banks so each bank holds
several queued bursts; and at full size on Fig. 16's and the headline
run's burst traces.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from ddr4_reference import PerCycleController, skylake_decode
from rank_nmp_reference import ddr4_state
from repro.dram.address_mapping import MemoryGeometry, SkylakeAddressMapping
from repro.dram.controller import MemoryController
from repro.dram.system import DramSystem, DramSystemConfig
from repro.dram.timing import DDR4Timing
from repro.traces import make_production_table_traces


def geometry(num_dimms, ranks_per_dimm):
    return MemoryGeometry(num_channels=1, dimms_per_channel=num_dimms,
                          ranks_per_dimm=ranks_per_dimm)


def build(num_dimms, ranks_per_dimm, queue_depth, timing=None):
    """A production and a reference controller for one channel."""
    shape = geometry(num_dimms, ranks_per_dimm)
    timing = timing or DDR4Timing()
    return (MemoryController(timing=timing, num_dimms=num_dimms,
                             ranks_per_dimm=ranks_per_dimm,
                             address_mapping=SkylakeAddressMapping(shape),
                             queue_depth=queue_depth),
            PerCycleController(num_dimms=num_dimms,
                               ranks_per_dimm=ranks_per_dimm,
                               geometry=shape, queue_depth=queue_depth,
                               timing=timing))


def channel_state(controller):
    """Either controller's channel state: the DDR4 state of each rank
    (:func:`~rank_nmp_reference.ddr4_state`), the C/A clock, the data
    bus and the rank of the last burst (None before the first)."""
    if isinstance(controller, PerCycleController):
        channel = controller.channel
        return ([ddr4_state(rank) for rank in channel.ranks],
                channel.next_ca_free, channel.next_data_free,
                channel._last_data_rank)
    last_data_rank = controller._last_data_rank
    return ([ddr4_state(controller.state, rank)
             for rank in range(controller.num_ranks)],
            controller.cycle, controller._data_bus,
            None if last_data_rank < 0 else last_data_rank)


def observed(controller, stats):
    """What the two controllers must agree on after a drain."""
    return (controller.completion_cycles, dataclasses.asdict(stats),
            stats.cycles_elapsed, controller.cycle,
            channel_state(controller))


def run_both(traces, num_dimms, ranks_per_dimm, queue_depth, timing=None):
    """Drain each ``(addresses, cap)`` of ``traces`` in turn on one
    production and one reference controller; returns both controllers."""
    fast, ref = build(num_dimms, ranks_per_dimm, queue_depth, timing)
    for addresses, cap in traces:
        assert observed(fast, fast.process_trace(addresses, cap)) == \
            observed(ref, ref.process_trace(addresses, cap))
        assert len(fast.completion_cycles) == len(addresses)
    return fast, ref


def reference_run_trace(config, addresses, request_bytes, outstanding):
    """``DramSystem.run_trace`` from the reference: each burst decoded on
    its own, every channel's bursts through its own per-cycle
    controller.  Returns the per-channel stats, the completion cycles in
    channel order and each controller's end state (:func:`channel_state`),
    for the channels that had bursts."""
    shape = config.geometry()
    per_channel = [[] for _ in range(config.num_channels)]
    for address in addresses:
        for burst in range(request_bytes // 64):
            burst_address = address + 64 * burst
            per_channel[skylake_decode(shape, burst_address).channel].append(
                burst_address)
    stats, done, states = [], [], []
    for bursts in per_channel:
        if not bursts:
            continue
        controller = PerCycleController(
            num_dimms=config.dimms_per_channel,
            ranks_per_dimm=config.ranks_per_dimm, geometry=shape,
            queue_depth=config.queue_depth, timing=config.timing)
        stats.append(dataclasses.asdict(
            controller.process_trace(bursts, outstanding)))
        done.extend(controller.completion_cycles)
        states.append(channel_state(controller))
    return stats, done, states


#: Block addresses anywhere in 1 GiB; a few rows' worth of blocks at
#: 8 MiB strides (same banks, different rows: hits and conflicts); or
#: blocks in the first 256 KiB, which spread over every bank of the first
#: ranks, so back-to-back ACTs meet tRRD and tFAW.
ADDRESSES = st.one_of(
    st.integers(0, (1 << 30) // 64 - 1).map(lambda block: block * 64),
    st.tuples(st.integers(0, 3), st.integers(0, 511)).map(
        lambda pair: pair[0] * (8 << 20) + pair[1] * 64),
    st.integers(0, (1 << 18) // 64 - 1).map(lambda block: block * 64))
TRACES = st.lists(ADDRESSES, min_size=1, max_size=48)


#: Up to 16 blocks of one row, on rows a multiple of 16 apart (so the
#: Skylake XOR hash leaves the bank alone), in three banks (two of one
#: bank group) of two ranks: several queued bursts per bank, with hits,
#: misses and conflicts.
CROWDED = st.tuples(st.integers(0, 1), st.sampled_from([0, 1, 4]),
                    st.integers(0, 2), st.integers(0, 15))


def crowded_address(num_dimms, ranks_per_dimm, target):
    """The byte address of a :data:`CROWDED` ``(rank, bank, row, column)``
    on a one-channel Skylake mapping of that population."""
    rank, bank, row, column = target
    ranks = num_dimms * ranks_per_dimm
    block = ((16 * row * ranks + rank % ranks) * 16 + bank) \
        * MemoryGeometry().columns_per_row + column
    return 64 * block


@st.composite
def timings(draw):
    """A ``DDR4Timing`` short enough for the per-cycle reference: every
    constraint positive, ``tRAS + tRP <= tRC + 1`` (as ``DDR4Timing``
    requires) and ``tRCD <= tRAS``.  With ``tRAS < tRCD`` a row
    conflict's PRE is always ready before the RD of the row just opened
    for an older burst of its bank, and FR-FCFS livelocks: neither loop
    ever finishes the trace."""
    small = st.integers(1, 24)
    tRAS = draw(st.integers(1, 48))
    tRP = draw(small)
    return DDR4Timing(
        tRC=draw(st.integers(max(1, tRAS + tRP - 1), tRAS + tRP + 24)),
        tRCD=draw(st.integers(1, min(24, tRAS))), tCL=draw(small), tRP=tRP,
        tBL=draw(st.integers(1, 8)), tCCD_S=draw(small),
        tCCD_L=draw(small), tRRD_S=draw(small), tRRD_L=draw(small),
        tFAW=draw(st.integers(1, 48)), tRAS=tRAS, tRTP=draw(small))


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       timing=timings(),
       num_dimms=st.integers(1, 4),
       ranks_per_dimm=st.integers(1, 2),
       queue_depth=st.sampled_from([1, 4, 32]),
       batch_size=st.one_of(st.none(), st.integers(1, 40)))
def test_drain_matches_reference_under_any_timing(
        data, timing, num_dimms, ranks_per_dimm, queue_depth, batch_size):
    """Any timing, two drains in a row, on traces crowded into a few banks
    (or drawn like the other properties'): completion cycles, stats and
    the end state agree."""
    crowded = st.lists(CROWDED, min_size=1, max_size=96).map(
        lambda targets: [crowded_address(num_dimms, ranks_per_dimm, target)
                         for target in targets])
    traces = [(data.draw(st.one_of(crowded, TRACES), label="addresses"),
               batch_size) for _ in range(2)]
    run_both(traces, num_dimms, ranks_per_dimm, queue_depth, timing)


def production_trace(num_tables):
    """Fig. 16's lookup addresses on its first ``num_tables`` tables:
    8 x 40 production lookups per table, 128-byte vectors in 20,000-row
    tables, table after table."""
    traces = make_production_table_traces(
        num_lookups_per_table=8 * 40, num_rows=20_000,
        num_tables=num_tables, seed=0)
    return [(trace.table_id * 20_000 + int(row)) * 128
            for trace in traces for row in trace.indices]


@pytest.mark.parametrize("num_tables", [2, 8], ids=["fig16", "headline"])
def test_drain_matches_reference_on_production_traces(num_tables):
    """Fig. 16's DDR4 baseline (two tables, 640 lookups) and the headline
    run's (eight tables), at full size: 128-byte lookups on one channel of
    4 DIMMs x 2 ranks, at most 32 outstanding."""
    config = DramSystemConfig(num_channels=1, dimms_per_channel=4,
                              ranks_per_dimm=2)
    addresses = production_trace(num_tables)
    system = DramSystem(config)
    result = system.run_trace(addresses, request_bytes=128,
                              outstanding_per_channel=32)
    stats, done, states = reference_run_trace(config, addresses, 128, 32)
    assert [dataclasses.asdict(channel)
            for channel in result.per_channel_stats] == stats
    assert system.controllers[0].completion_cycles == done
    assert [channel_state(system.controllers[0])] == states
    assert stats[0]["requests_completed"] == 2 * len(addresses)


@settings(max_examples=60, deadline=None)
@given(addresses=TRACES,
       num_dimms=st.integers(1, 4),
       ranks_per_dimm=st.integers(1, 2),
       queue_depth=st.integers(1, 32),
       batch_size=st.one_of(st.none(), st.integers(1, 40)))
def test_event_skipping_matches_per_cycle_reference(
        addresses, num_dimms, ranks_per_dimm, queue_depth, batch_size):
    run_both([(addresses, batch_size)], num_dimms, ranks_per_dimm,
             queue_depth)


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       num_channels=st.sampled_from([1, 4]),
       num_dimms=st.integers(1, 4),
       ranks_per_dimm=st.integers(1, 2),
       queue_depth=st.sampled_from([2, 32]),
       request_bytes=st.sampled_from([64, 128]))
def test_drain_matches_reference_across_channels_and_drains(
        data, num_channels, num_dimms, ranks_per_dimm, queue_depth,
        request_bytes):
    """The whole system on one or four channels, then two drains in a row
    on one controller; each cap is none, one, or above the queue depth."""
    caps = st.sampled_from([None, 1, queue_depth + 3])
    addresses = data.draw(TRACES, label="addresses")
    outstanding = data.draw(caps, label="outstanding")
    config = DramSystemConfig(num_channels=num_channels,
                              dimms_per_channel=num_dimms,
                              ranks_per_dimm=ranks_per_dimm,
                              queue_depth=queue_depth)
    system = DramSystem(config)
    result = system.run_trace(addresses, request_bytes=request_bytes,
                              outstanding_per_channel=outstanding)
    stats, done, states = reference_run_trace(config, addresses,
                                              request_bytes, outstanding)
    assert [dataclasses.asdict(channel)
            for channel in result.per_channel_stats] == stats
    assert [cycle for controller in system.controllers
            for cycle in controller.completion_cycles] == done
    assert [channel_state(controller) for controller in system.controllers
            if controller.completion_cycles] == states
    assert result.cycles == max(channel["cycles_elapsed"]
                                for channel in stats)

    second = data.draw(TRACES, label="second drain")
    run_both([(addresses, outstanding),
              (second, data.draw(caps, label="second cap"))],
             num_dimms, ranks_per_dimm, queue_depth)


def test_reference_agrees_on_a_long_random_trace():
    rng = random.Random(3)
    addresses = [rng.randrange(0, 1 << 30) // 64 * 64 for _ in range(400)]
    run_both([(addresses, 32)], 2, 2, 32)


def test_waiting_requests_are_admitted_before_new_arrivals():
    """With more requests outstanding than queue slots, a completion frees
    one slot and the next arrival joins behind the requests already
    waiting for it: admission stays in arrival order."""
    rng = random.Random(8)
    addresses = [rng.randrange(0, 1 << 24) // 64 * 64 for _ in range(120)]
    run_both([(addresses, 12)], 1, 2, 4)


def test_alternating_ranks_pay_the_switch_penalty():
    """Row hits alternating between the two ranks of one DIMM: every RD
    switches the data bus to the other rank and pays the rank-to-rank
    penalty, in the drain as in the reference."""
    shape = geometry(1, 2)
    blocks_per_rank = shape.columns_per_row * shape.bank_groups \
        * shape.banks_per_group
    addresses = [((index % 2) * blocks_per_rank + index // 2) * 64
                 for index in range(64)]
    assert [skylake_decode(shape, address).rank
            for address in addresses] == [index % 2 for index in range(64)]
    _, ref = run_both([(addresses, None)], 1, 2, 32)
    assert ref.rank_switches > 32
