"""The FR-FCFS drain against the per-cycle layered reference.

``PerCycleController`` (``tests/ddr4_reference.py``) is the controller's
original loop: every memory cycle it rescans the read queue and asks the
layered ``Channel.can_issue`` -> ``Rank`` -> ``Bank`` checks whether each
request's next command may issue, then issues the FR-FCFS pick.  The
production controller runs one drain over flat state, jumps idle cycles
and reads readiness from a per-rank cache.  Both must produce identical
completion cycles, ``ControllerStats`` and elapsed cycles on any trace:
one channel or several, any population and queue depth, any outstanding
cap (above the queue depth too, where arrivals wait for admission), and
over two drains in a row, where the open rows and timing state of the
first carry into the second.
"""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from ddr4_reference import PerCycleController, skylake_decode
from rank_nmp_reference import ddr4_state
from repro.dram.address_mapping import MemoryGeometry, SkylakeAddressMapping
from repro.dram.controller import MemoryController
from repro.dram.system import DramSystem, DramSystemConfig


def geometry(num_dimms, ranks_per_dimm):
    return MemoryGeometry(num_channels=1, dimms_per_channel=num_dimms,
                          ranks_per_dimm=ranks_per_dimm)


def build(num_dimms, ranks_per_dimm, queue_depth):
    """A production and a reference controller for one channel."""
    shape = geometry(num_dimms, ranks_per_dimm)
    return (MemoryController(num_dimms=num_dimms,
                             ranks_per_dimm=ranks_per_dimm,
                             address_mapping=SkylakeAddressMapping(shape),
                             queue_depth=queue_depth),
            PerCycleController(num_dimms=num_dimms,
                               ranks_per_dimm=ranks_per_dimm,
                               geometry=shape, queue_depth=queue_depth))


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


def run_both(traces, num_dimms, ranks_per_dimm, queue_depth):
    """Drain each ``(addresses, cap)`` of ``traces`` in turn on one
    production and one reference controller; returns both controllers."""
    fast, ref = build(num_dimms, ranks_per_dimm, queue_depth)
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
