"""The RecNMP channel: every processing unit on one memory channel.

A RecNMP processing unit (PU, Fig. 8(a)) sits in a DIMM's buffer chip:
its DIMM-NMP module receives the compressed NMP-Insts over the DIMM
interface, demultiplexes them to one rank-NMP module per rank by Rank-ID
and reduces the ranks' partial sums with an element-wise adder tree
before returning DIMM.Sum to the host (Fig. 8(b)).  A channel populated
with ``num_dimms`` RecNMP DIMMs therefore exposes ``num_dimms *
ranks_per_dimm`` concurrently active rank-NMPs.

:class:`RecNMPChannel` models that population directly: it holds the
DDR4 state of every rank of the channel in one flat
:class:`~repro.core.rank_nmp.RankState` and runs each packet's columns
across the ranks in one pass.  Each rank-NMP receives its instructions'
Daddrs, burst counts, weighted flags and LocalityBits, with their arrival
cycles and decoded bank / row; the packet's PsumTags only count the
pooled outputs the DIMM returns.  The DIMM-NMP layer contributes only
timing -- the C/A delivery rate of the compressed instructions and the
adder-tree plus DIMM.Sum drain after the slowest rank -- which the module
constants below fix at the paper's values.
"""

import numpy as np

from repro.core import kernels as _kernels
from repro.core.rank_nmp import RankNMPConfig, RankState, execute_segments

#: NMP-Insts the host memory controller pushes over the channel per DRAM
#: cycle: the compressed format sustains two (double data rate on the
#: C/A+DQ pins, Fig. 9(b)).
INSTRUCTIONS_PER_CYCLE = 2

#: Latency of the DIMM-NMP's element-wise adder-tree reduction.
ADDER_TREE_LATENCY_CYCLES = 3

#: Cycles to return one pooled DIMM.Sum over the DIMM interface.
SUM_TRANSFER_CYCLES = 1


def require_valid_ranks(ranks, num_ranks):
    """Raise unless every channel-rank index (an int64 array) is in
    ``[0, num_ranks)``.  The FR-FCFS reorder indexes its per-rank
    open-row table by rank, so a negative rank would wrap around
    silently instead of failing."""
    if len(ranks) and (int(ranks.min()) < 0
                       or int(ranks.max()) >= num_ranks):
        bad = ranks[(ranks < 0) | (ranks >= num_ranks)][0]
        raise ValueError("invalid rank %d for instruction" % int(bad))


class RecNMPChannel:
    """All RecNMP PUs on one memory channel.

    Parameters
    ----------
    num_dimms, ranks_per_dimm:
        Channel population (the paper sweeps 1x2, 1x4, 2x2, 2x4, 4x2).
    rank_config:
        Shared rank-NMP configuration.
    """

    def __init__(self, num_dimms=4, ranks_per_dimm=2, rank_config=None):
        if num_dimms <= 0 or ranks_per_dimm <= 0:
            raise ValueError("num_dimms and ranks_per_dimm must be positive")
        self.num_dimms = int(num_dimms)
        self.ranks_per_dimm = int(ranks_per_dimm)
        self.rank_config = rank_config or RankNMPConfig()
        self._state = RankState(self.rank_config, self.num_ranks)

    # ------------------------------------------------------------------ #
    @property
    def num_ranks(self):
        """Total concurrently-activatable ranks on the channel."""
        return self.num_dimms * self.ranks_per_dimm

    # ------------------------------------------------------------------ #
    def execute_packet(self, packet, start_cycle=0, ranks=None, order=None,
                       _prepared=None):
        """Execute one packet across all ranks of the channel.

        ``ranks`` optionally carries the per-instruction channel-rank
        indices, aligned with the packet's instructions; by default an
        instruction goes to rank ``Daddr % num_ranks``.  ``order``
        optionally gives the issue order as a permutation of the packet's
        instructions (the controller's FR-FCFS reorder); by default they
        issue in packet order.  Returns the packet completion cycle.

        ``_prepared`` is the memory controller's private hand-off: a
        ``(prepared, packet_index)`` pair from :meth:`_prepare` that
        already holds this packet's ranks and issue order, so only
        ``start_cycle`` is read besides it.
        """
        if _prepared is not None:
            return self._run(_prepared, start_cycle)
        return self._execute(packet.instructions, ranks, order, start_cycle)

    def execute_packed(self, packed, start_cycle=0, ranks=None,
                       _prepared=None):
        """:meth:`execute_packet` over a
        :class:`~repro.core.instruction.PackedInstructions` already in
        issue order; ``ranks`` the aligned per-instruction channel-rank
        indices (default: Daddr modulo rank count).
        """
        if _prepared is not None:
            return self._run(_prepared, start_cycle)
        return self._execute(packed, ranks, None, start_cycle)

    def _execute(self, packed, ranks, order, start_cycle):
        """One packet from the public entry points: check its ranks and
        issue order, prepare its columns and run it."""
        count = len(packed)
        if ranks is None:
            ranks = packed.daddrs % self.num_ranks
        ranks = np.asarray(ranks, dtype=np.int64)
        if len(ranks) != count:
            raise ValueError("ranks has %d entries for a %d-instruction "
                             "packet" % (len(ranks), count))
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            if order.shape != (count,) or not np.array_equal(
                    np.sort(order), np.arange(count)):
                raise ValueError(
                    "order %s is not a permutation of the packet's %d "
                    "instructions" % (order.tolist(), count))
        if count == 0:
            return start_cycle
        require_valid_ranks(ranks, self.num_ranks)
        return self._run((self._prepare([packed], ranks, order), 0),
                         start_cycle)

    def _prepare(self, packed_list, ranks, order=None):
        """The columns of a dispatch's packets, laid out for
        :func:`~repro.core.rank_nmp.execute_segments`.

        ``packed_list`` holds the packets' columns in schedule order,
        ``ranks`` the validated channel-rank index of each of their
        instructions, concatenated, and ``order`` (None: packet order)
        every instruction's index in issue order, each packet's within
        its own span.

        The instruction at issue position ``i`` of its packet reaches its
        rank over the shared C/A interface at the packet's start cycle
        plus ``i // INSTRUCTIONS_PER_CYCLE``.  One stable argsort by
        (packet, rank) groups each packet's issue sequence by rank,
        keeping issue order within each rank; every column is gathered in
        that order, decoded into bank group / flat bank / row and (for
        the list loop) turned into a list once for the whole dispatch.
        Returns ``(columns, segments, poolings)``: ``segments[p]`` lists
        packet ``p``'s ``(rank, begin, end)`` spans of the columns and
        ``poolings[p]`` its number of distinct PsumTags.
        """
        state = self._state
        config = self.rank_config
        num_ranks = self.num_ranks
        num_packets = len(packed_list)
        sizes = [len(packed) for packed in packed_list]
        packets = np.repeat(np.arange(num_packets), sizes)
        starts = np.cumsum(sizes) - sizes
        if order is not None:
            ranks = ranks[order]
        keys = packets * num_ranks + ranks
        by_rank = np.argsort(keys, kind="stable")
        gather = by_rank if order is None else order[by_rank]

        def column(name):
            return np.concatenate(
                [getattr(packed, name) for packed in packed_list])[gather]

        daddrs = column("daddrs")
        if len(daddrs) and int(daddrs.min()) < 0:
            raise ValueError("dram_address must be non-negative, got %d"
                             % int(daddrs.min()))
        bank_groups, banks, rows = _kernels.pack_decoded(config, daddrs)
        flats = (ranks[by_rank] * config.num_bank_groups + bank_groups) \
            * config.banks_per_group + banks
        computes = config.adder_latency_cycles \
            + config.multiplier_latency_cycles \
            * column("weighted").astype(np.int64)
        offsets = (np.arange(len(keys)) - starts[packets])[by_rank] \
            // INSTRUCTIONS_PER_CYCLE
        columns = [daddrs, column("vsizes"), computes,
                   column("localities").astype(np.int64), offsets,
                   bank_groups, flats, rows]
        if not state.takes_arrays:
            columns = [values.tolist() for values in columns]
        per_segment = np.bincount(keys, minlength=num_packets * num_ranks)
        used = np.flatnonzero(per_segment)
        ends = np.cumsum(per_segment[used])
        spans = list(zip((used % num_ranks).tolist(),
                         (ends - per_segment[used]).tolist(),
                         ends.tolist()))
        firsts = np.searchsorted(used // num_ranks,
                                 np.arange(num_packets + 1)).tolist()
        segments = [spans[first:last]
                    for first, last in zip(firsts, firsts[1:])]
        tags = np.concatenate([packed.psum_tags for packed in packed_list])
        poolings = [0] * num_packets
        if len(tags):
            tags = tags - tags.min()
            span = int(tags.max()) + 1
            tags = np.sort(packets * span + tags)
            distinct = np.ones(len(tags), dtype=bool)
            distinct[1:] = tags[1:] != tags[:-1]
            poolings = np.bincount(tags[distinct] // span,
                                   minlength=num_packets).tolist()
        return columns, segments, poolings

    def _run(self, prepared, start_cycle):
        """Run one packet of a prepared dispatch, given as ``(prepared,
        packet_index)`` (see :meth:`_prepare`), from ``start_cycle``:
        every rank it touches in one pass.  The packet completes when the
        slowest rank finishes and the adder tree plus one DIMM.Sum
        transfer per pooled output drain."""
        (columns, segments, poolings), packet = prepared
        spans = segments[packet]
        if not spans:
            return start_cycle
        return (execute_segments(self._state, columns, spans, start_cycle)
                + ADDER_TREE_LATENCY_CYCLES
                + SUM_TRANSFER_CYCLES * poolings[packet])

    def aggregate_stats(self):
        """Aggregate statistics across all rank-NMPs of the channel."""
        totals = {
            "instructions": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_bypasses": 0,
            "dram_reads": 0,
            "activations": 0,
            "bytes_from_dram": 0,
            "bytes_from_cache": 0,
        }
        for stats in self._state.stats:
            totals["instructions"] += stats.instructions
            totals["cache_hits"] += stats.cache_hits
            totals["cache_misses"] += stats.cache_misses
            totals["cache_bypasses"] += stats.cache_bypasses
            totals["dram_reads"] += stats.dram_reads
            totals["activations"] += stats.activations
            totals["bytes_from_dram"] += stats.bytes_from_dram
            totals["bytes_from_cache"] += stats.bytes_from_cache
        lookups = (totals["cache_hits"] + totals["cache_misses"]
                   + totals["cache_bypasses"])
        totals["cache_hit_rate"] = (totals["cache_hits"] / lookups
                                    if lookups else 0.0)
        return totals

    def reset(self):
        """Reset every rank's timing state, cache and statistics."""
        for rank in range(self.num_ranks):
            self._state.reset(rank)
