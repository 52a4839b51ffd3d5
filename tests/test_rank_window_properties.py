"""The rank-NMP window loop on drawn arrivals and evicting caches.

``TestSchedulerEquivalence`` (``test_core_rank_dimm_nmp.py``) runs seeded
streams against a 64-entry RankCache.  These properties draw the
stream, its arrival cycles (never decreasing, as the C/A interface
delivers them, so each window scan ends at the first member that cannot
win), the window and a RankCache of one to four entries, so allocations
evict.  The rank is rank 0 of a one-rank channel fed the channel's own
columns (``nmp_packets.run_instructions``).  The python flavor's column
loop and the flat-python kernel are both compared with the
per-iteration ``estimated_start`` reference loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.instruction import NMPInstruction
from repro.core.rank_nmp import RankNMPConfig
from test_core_rank_dimm_nmp import FULL_CMD, _reference_execute_instructions

from nmp_packets import run_instructions, single_rank

FLAVORS = ("python", "flat-python")


def _observed(rank, last):
    """Everything the window loop decides, after one stream."""
    state = rank._state
    cache = state.caches[0]
    return {
        "last": last,
        "current_cycle": int(state.current[0]),
        "stats": state.stats[0].as_dict(),
        "cache_stats": cache.stats.as_dict(),
        "lru": list(cache._entries),
    }


def _run_all(instructions, arrivals, window, capacity_bytes):
    """``{name: observed}`` for the reference loop and every flavor."""
    config = RankNMPConfig(cache_capacity_bytes=capacity_bytes)
    with kernels.force_flavor("python"):
        reference = single_rank(config)
    observed = {"reference": _observed(
        reference, _reference_execute_instructions(
            reference, instructions, arrivals, reorder_window=window))}
    for flavor in FLAVORS:
        with kernels.force_flavor(flavor):
            rank = single_rank(config)
        observed[flavor] = _observed(rank, run_instructions(
            rank, instructions, arrival_cycles=arrivals,
            reorder_window=window))
    return observed


@st.composite
def streams(draw):
    """``(instructions, arrivals, window, capacity_bytes)``."""
    count = draw(st.integers(1, 60), label="count")
    # A small Daddr pool: repeats hit the cache, neighbours share rows
    # and banks, distant blocks conflict.
    daddr = st.one_of(st.integers(0, 40), st.integers(0, 1 << 16))
    instructions = [
        NMPInstruction(ddr_cmd=FULL_CMD, daddr=draw(daddr),
                       vsize=draw(st.integers(1, 3)),
                       weight=draw(st.sampled_from([1.0, 0.5])),
                       locality_bit=draw(st.booleans()),
                       psum_tag=draw(st.integers(0, 7)))
        for _ in range(count)]
    arrivals = sorted(draw(st.lists(st.integers(0, 300), min_size=count,
                                    max_size=count), label="arrivals"))
    window = draw(st.integers(1, 20), label="window")
    capacity_bytes = 64 * draw(st.integers(1, 4), label="cache_entries")
    return instructions, arrivals, window, capacity_bytes


@settings(max_examples=150, deadline=None)
@given(streams())
def test_drawn_streams_and_small_cache_match_reference(stream):
    observed = _run_all(*stream)
    for flavor in FLAVORS:
        assert observed[flavor] == observed["reference"], flavor



@pytest.mark.parametrize("seed", range(4))
def test_burst_arrivals_evict_and_match_reference(seed):
    # Instructions arrive five at a time, so each window holds several
    # members that arrived together and the scan ends on estimates, not
    # arrivals; a two-entry cache evicts.
    instructions = [
        NMPInstruction(ddr_cmd=FULL_CMD, daddr=(i * 7 + seed) % 11 * 4099,
                       vsize=1 + i % 2, locality_bit=i % 3 != 0,
                       psum_tag=i % 4)
        for i in range(40)]
    arrivals = [9 * (i // 5) for i in range(40)]
    observed = _run_all(instructions, arrivals, 8, 128)
    assert observed["reference"]["cache_stats"]["evictions"] > 0
    for flavor in FLAVORS:
        assert observed[flavor] == observed["reference"], flavor
