"""The RecNMP channel: every processing unit on one memory channel.

A RecNMP processing unit (PU, Fig. 8(a)) sits in a DIMM's buffer chip:
its DIMM-NMP module receives the compressed NMP-Insts over the DIMM
interface, demultiplexes them to one rank-NMP module per rank by Rank-ID
and reduces the ranks' partial sums with an element-wise adder tree
before returning DIMM.Sum to the host (Fig. 8(b)).  A channel populated
with ``num_dimms`` RecNMP DIMMs therefore exposes ``num_dimms *
ranks_per_dimm`` concurrently active rank-NMPs.

:class:`RecNMPChannel` models that population directly: it holds the
channel's rank-NMPs in channel-rank order and runs one packet's columns
across them.  Each rank-NMP receives its instructions' Daddrs, burst
counts, weighted flags and LocalityBits, with their arrival cycles and
decoded bank / row; the packet's PsumTags only count the pooled outputs
the DIMM returns.  The DIMM-NMP layer contributes only timing -- the C/A
delivery rate of the compressed instructions and the adder-tree plus
DIMM.Sum drain after the slowest rank -- which the module constants below
fix at the paper's values.
"""

import numpy as np

from repro.core import kernels as _kernels
from repro.core.rank_nmp import RankNMP, RankNMPConfig

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
        self._rank_nmps = [RankNMP(self.rank_config, rank_index=r)
                           for r in range(self.num_ranks)]

    # ------------------------------------------------------------------ #
    @property
    def num_ranks(self):
        """Total concurrently-activatable ranks on the channel."""
        return self.num_dimms * self.ranks_per_dimm

    def rank_nmp(self, channel_rank_index):
        """Rank-NMP module for a channel-wide rank index."""
        return self._rank_nmps[channel_rank_index]

    def all_rank_nmps(self):
        """All rank-NMP modules of the channel, in channel-rank order."""
        return list(self._rank_nmps)

    # ------------------------------------------------------------------ #
    def execute_packet(self, packet, start_cycle=0, ranks=None, order=None):
        """Execute one packet across all ranks of the channel.

        ``ranks`` optionally carries the per-instruction channel-rank
        indices, aligned with the packet's instructions (the memory
        controller computes them once per packet); by default an
        instruction goes to rank ``Daddr % num_ranks``.  ``order``
        optionally gives the issue order as a permutation of the packet's
        instructions (the controller's FR-FCFS reorder); by default they
        issue in packet order.  Returns the packet completion cycle.
        """
        packed = packet.instructions
        if ranks is None:
            ranks = packed.daddrs % self.num_ranks
        return self._execute_columns(packed, ranks, order, start_cycle)

    def execute_packed(self, packed, start_cycle=0, ranks=None):
        """:meth:`execute_packet` over a
        :class:`~repro.core.instruction.PackedInstructions` already in
        issue order; ``ranks`` the aligned per-instruction channel-rank
        indices (default: Daddr modulo rank count).
        """
        if ranks is None:
            ranks = packed.daddrs % self.num_ranks
        return self._execute_columns(packed, ranks, None, start_cycle)

    def _execute_columns(self, packed, ranks, order, start_cycle):
        """Split one packet's columns over the ranks and run them.

        The instruction at issue position ``i`` (``order[i]`` of the packet
        when reordered) reaches its rank over the shared C/A interface at
        ``start_cycle + i // INSTRUCTIONS_PER_CYCLE``.  One stable argsort
        groups the issue sequence by rank, keeping issue order within each
        rank; every column is gathered in that order once, decoded into
        bank group / bank / row once, and each rank-NMP runs its
        contiguous span: array slices for a bound kernel, otherwise slices
        of the columns' ``tolist()``.  The packet completes when the
        slowest rank finishes and the adder tree plus one DIMM.Sum
        transfer per pooled output drain.  ``ranks`` must hold exactly one
        entry per instruction.
        """
        count = len(packed)
        ranks = np.asarray(ranks, dtype=np.int64)
        if len(ranks) != count:
            raise ValueError("ranks has %d entries for a %d-instruction "
                             "packet" % (len(ranks), count))
        if count == 0:
            return start_cycle
        num_ranks = self.num_ranks
        require_valid_ranks(ranks, num_ranks)
        if order is not None:
            ranks = ranks[order]
        by_rank = np.argsort(ranks, kind="stable")
        gather = by_rank if order is None else order[by_rank]
        daddrs = packed.daddrs[gather]
        columns = [daddrs, packed.vsizes[gather], packed.weighted[gather],
                   packed.localities[gather],
                   start_cycle + by_rank // INSTRUCTIONS_PER_CYCLE]
        columns.extend(_kernels.pack_decoded(self.rank_config, daddrs))
        rank_nmps = self._rank_nmps
        if not rank_nmps[0].takes_arrays:
            columns = [column.tolist() for column in columns]
        per_rank_last = []
        start = 0
        for rank_index, rank_count in enumerate(
                np.bincount(ranks, minlength=num_ranks).tolist()):
            if rank_count:
                end = start + rank_count
                per_rank_last.append(rank_nmps[rank_index].execute_columns(
                    [column[start:end] for column in columns]))
                start = end
        return (max(per_rank_last) + ADDER_TREE_LATENCY_CYCLES
                + SUM_TRANSFER_CYCLES * packed.num_poolings)

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
        for rank_nmp in self._rank_nmps:
            stats = rank_nmp.stats
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
        for rank_nmp in self._rank_nmps:
            rank_nmp.reset()
