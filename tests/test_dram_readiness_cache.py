"""The FR-FCFS controller's per-rank readiness cache.

Each queued request caches the bank+rank part of its readiness
(``MemoryController._rank_ready``), computed at admission and refreshed
for every queued request of a rank after each command to that rank,
tagged with the number of commands its rank had received.  A command
changes the state of one rank only, so every queued entry must be
current and equal a fresh recomputation: the checked controller below
asserts that for every queued request before every pass of its
scheduler, and that each pass issues one command.
"""

from hypothesis import given, settings, strategies as st

from repro.dram.address_mapping import MemoryGeometry, SkylakeAddressMapping
from repro.dram.controller import MemoryController


class CheckedController(MemoryController):
    """Asserts the readiness cache against recomputation on every pass."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache_checks = 0
        self.passes = 0
        self.rank_switches = 0

    def _step(self, last_cycle):
        # Admit first (the pass's own admission is then a no-op), so the
        # check covers every entry the pass reads.
        self._admit_waiting()
        # The pass reads no readiness below the clock only because of this.
        assert self.cycle == self.channel.next_ca_free
        for pending in self._queue:
            assert pending.version == self._rank_versions[pending.rank_index]
            assert (pending.rank_ready, pending.is_hit) == \
                self._rank_ready(pending)
        # Each queued entry is a member of its own rank, once.
        assert sorted(map(id, self._queue)) == sorted(
            id(pending) for members in self._rank_members
            for pending in members)
        assert all(pending.rank_index == rank_index
                   for rank_index, members in enumerate(self._rank_members)
                   for pending in members)
        self.cache_checks += len(self._queue)
        self.passes += 1
        last_data_rank = self.channel._last_data_rank
        issued = super()._step(last_cycle)
        if last_data_rank not in (None, self.channel._last_data_rank):
            self.rank_switches += 1
        return issued


def build(num_dimms, ranks_per_dimm, queue_depth):
    geometry = MemoryGeometry(num_channels=1, dimms_per_channel=num_dimms,
                              ranks_per_dimm=ranks_per_dimm)
    return CheckedController(num_dimms=num_dimms,
                             ranks_per_dimm=ranks_per_dimm,
                             address_mapping=SkylakeAddressMapping(geometry),
                             queue_depth=queue_depth)


#: Block addresses anywhere in 1 GiB, or a few rows' worth of blocks at
#: 8 MiB strides (same banks, different rows: hits and conflicts).
ADDRESSES = st.one_of(
    st.integers(0, (1 << 30) // 64 - 1).map(lambda block: block * 64),
    st.tuples(st.integers(0, 3), st.integers(0, 511)).map(
        lambda pair: pair[0] * (8 << 20) + pair[1] * 64))


@settings(max_examples=60, deadline=None)
@given(addresses=st.lists(ADDRESSES, min_size=1, max_size=48),
       num_dimms=st.integers(1, 4),
       ranks_per_dimm=st.integers(1, 2),
       queue_depth=st.integers(1, 32),
       batch_size=st.one_of(st.none(), st.integers(1, 40)))
def test_cached_rank_readiness_matches_recomputation(
        addresses, num_dimms, ranks_per_dimm, queue_depth, batch_size):
    controller = build(num_dimms, ranks_per_dimm, queue_depth)
    stats = controller.process_trace(addresses, batch_size=batch_size)
    assert stats.requests_completed == len(addresses)
    assert controller.passes == stats.commands_issued


def test_alternating_ranks_reuse_and_invalidate_the_cache():
    """Row hits alternating between the two ranks of one DIMM: every RD
    switches the data bus to the other rank (the rank-to-rank penalty),
    and every issue refreshes its own rank's entries and leaves the other
    rank's as they were."""
    controller = build(1, 2, 32)
    mapping = controller.address_mapping
    geometry = mapping.geometry
    blocks_per_rank = geometry.columns_per_row * geometry.bank_groups \
        * geometry.banks_per_group
    addresses = [((index % 2) * blocks_per_rank + index // 2) * 64
                 for index in range(64)]
    assert [mapping.map(address).rank for address in addresses] == \
        [index % 2 for index in range(64)]
    stats = controller.process_trace(addresses)
    assert stats.requests_completed == 64
    assert controller.rank_switches > 32
    assert controller.cache_checks > stats.commands_issued
