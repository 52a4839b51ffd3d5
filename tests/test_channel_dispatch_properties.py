"""The channel's one-pass dispatch equals the per-packet, per-rank model.

``NMPMemoryController.dispatch`` prepares a whole dispatch's columns once
and runs each packet through ``RecNMPChannel`` in one pass over every
rank it touches, on flat per-channel state.  ``tests/rank_nmp_reference.py``
keeps the design it replaced: per packet, the full-scan reorder, a split
over the ranks and one ``Rank``/``Bank``-object window loop per rank.
These properties draw channels of one to eight ranks, with and without a
(small, evicting) RankCache, 64, 128 or 256 B vectors, then run two
dispatches with direct ``execute_packet`` / ``execute_packed`` calls
between them (random issue orders and start cycles), and compare every
packet completion, each rank's statistics, cache statistics and LRU
order, and its bank and rank timing state.  Both portable kernel
flavors run the channel side.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank_nmp_reference import (
    ReferenceChannel,
    rank_states,
    reference_dispatch,
)
from repro.core import kernels
from repro.core.instruction import (
    DDR_CMD_ACT,
    DDR_CMD_PRE,
    DDR_CMD_RD,
    NMPInstruction,
)
from repro.core.memory_controller import NMPMemoryController
from repro.core.processing_unit import RecNMPChannel
from repro.core.rank_nmp import RankNMPConfig

from nmp_packets import packet_of

FULL_CMD = DDR_CMD_ACT | DDR_CMD_RD | DDR_CMD_PRE

#: Channel populations of one to eight ranks.
POPULATIONS = [(1, 1), (1, 2), (3, 1), (2, 2), (1, 5), (2, 3), (7, 1),
               (4, 2)]


@st.composite
def packets(draw, vsize, max_packets=4):
    """One to ``max_packets`` packets of up to 40 instructions."""
    # A small Daddr pool so repeats hit the cache, neighbours share rows
    # and banks and distant blocks conflict.
    daddr = st.one_of(st.integers(0, 48), st.integers(0, 1 << 18))
    result = []
    for _ in range(draw(st.integers(1, max_packets))):
        count = draw(st.integers(0, 40))
        result.append(packet_of([
            NMPInstruction(ddr_cmd=FULL_CMD, daddr=draw(daddr), vsize=vsize,
                           weight=draw(st.sampled_from([1.0, 0.5])),
                           locality_bit=draw(st.booleans()),
                           psum_tag=draw(st.integers(0, 7)))
            for _ in range(count)]))
    return result


@st.composite
def scenarios(draw):
    num_dimms, ranks_per_dimm = draw(st.sampled_from(POPULATIONS),
                                     label="population")
    vector_bytes = draw(st.sampled_from([64, 128, 256]), label="vector")
    config = RankNMPConfig(
        use_cache=draw(st.booleans(), label="use_cache"),
        vector_size_bytes=vector_bytes,
        cache_capacity_bytes=vector_bytes * draw(st.integers(1, 6),
                                                 label="cache_entries"))
    vsize = vector_bytes // 64
    first = draw(packets(vsize), label="first dispatch")
    direct = []
    for packet in draw(packets(vsize, max_packets=3), label="direct"):
        count = len(packet)
        order = draw(st.permutations(range(count))) \
            if draw(st.booleans()) else None
        packed = draw(st.booleans()) and order is None
        direct.append((packet, draw(st.integers(0, 3000)), order, packed))
    second = draw(packets(vsize), label="second dispatch")
    window = draw(st.integers(1, 20), label="reorder_window")
    reorder = draw(st.booleans(), label="reorder")
    return ((num_dimms, ranks_per_dimm, config), first, direct, second,
            window, reorder)


def _observed(channel, completions):
    """Everything the two models must agree on."""
    return {"completions": completions, "ranks": rank_states(channel)}


def _run_channel(scenario, flavor):
    (num_dimms, ranks_per_dimm, config), first, direct, second, window, \
        reorder = scenario
    context = contextlib.nullcontext() if flavor is None \
        else kernels.force_flavor(flavor)
    completions = []
    with context:
        channel = RecNMPChannel(num_dimms, ranks_per_dimm, config)
        for packets in (first, second):
            controller = NMPMemoryController(
                num_ranks=channel.num_ranks, scheduling_policy="fcfs",
                reorder_window=window)
            controller.submit(packets)
            completions.append(controller.dispatch(channel, reorder))
            if packets is first:
                for packet, start, order, packed in direct:
                    if packed:
                        completions.append(channel.execute_packed(
                            packet.instructions, start_cycle=start))
                    else:
                        completions.append(channel.execute_packet(
                            packet, start_cycle=start, order=order))
    return _observed(channel, completions)


def _run_reference(scenario):
    (num_dimms, ranks_per_dimm, config), first, direct, second, window, \
        reorder = scenario
    channel = ReferenceChannel(num_dimms, ranks_per_dimm, config)
    completions = [reference_dispatch(channel, first, window, reorder)]
    for packet, start, order, _ in direct:
        completions.append(channel.execute_packet(packet, start,
                                                  order=order))
    completions.append(reference_dispatch(channel, second, window,
                                          reorder))
    return _observed(channel, completions)


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_dispatch_matches_per_packet_per_rank_reference(scenario):
    expected = _run_reference(scenario)
    assert _run_channel(scenario, None) == expected
    assert _run_channel(scenario, "flat-python") == expected


@pytest.mark.parametrize("flavor", [None, "flat-python"])
def test_long_packets_through_both_entry_points(flavor):
    # 300-instruction packets cross the CPython packed cutover, so one
    # dispatch sends packets through both entry points.
    rng = np.random.default_rng(4)
    config = RankNMPConfig(cache_capacity_bytes=64 * 16)

    def packet(count):
        return packet_of([
            NMPInstruction(ddr_cmd=FULL_CMD,
                           daddr=int(rng.integers(0, 1 << 16)),
                           weight=float(rng.choice([1.0, 0.5])),
                           locality_bit=bool(rng.integers(0, 2)),
                           psum_tag=int(rng.integers(0, 16)))
            for _ in range(count)])

    first = [packet(300), packet(12), packet(300)]
    second = [packet(5), packet(280)]
    scenario = ((4, 2, config), first, [], second, 16, True)
    assert _run_channel(scenario, flavor) == _run_reference(scenario)
