"""RecNMP processing unit (PU): one per DIMM buffer chip (Fig. 8(a)).

A PU is a DIMM-NMP module plus one rank-NMP module per rank.  A memory
channel populated with several RecNMP DIMMs exposes ``num_dimms *
ranks_per_dimm`` concurrently active ranks; with software coordination the
partial sums of multiple PUs are combined on the host.

This module also provides :class:`RecNMPChannel`, the channel-level
composition used by the simulator: it distributes a packet's instructions
over all PUs/ranks of the channel and accounts for the shared C/A interface
through which the compressed NMP-Insts are delivered.
"""

import numpy as np

from repro.core import kernels as _kernels
from repro.core.dimm_nmp import DimmNMP
from repro.core.rank_nmp import RankNMPConfig


def require_valid_ranks(ranks, num_ranks):
    """Raise unless every channel-rank index (an int64 array) is in
    ``[0, num_ranks)``.  The FR-FCFS reorder indexes its per-rank
    open-row table by rank, so a negative rank would wrap around
    silently instead of failing."""
    if len(ranks) and (int(ranks.min()) < 0
                       or int(ranks.max()) >= num_ranks):
        bad = ranks[(ranks < 0) | (ranks >= num_ranks)][0]
        raise ValueError("invalid rank %d for instruction" % int(bad))


class RecNMPProcessingUnit:
    """One RecNMP PU: the DIMM-NMP plus its rank-NMPs on one DIMM."""

    def __init__(self, num_ranks=2, rank_config=None, dimm_index=0):
        self.dimm_index = dimm_index
        self.dimm_nmp = DimmNMP(num_ranks=num_ranks, rank_config=rank_config,
                                dimm_index=dimm_index)

    @property
    def num_ranks(self):
        return self.dimm_nmp.num_ranks

    @property
    def rank_nmps(self):
        return self.dimm_nmp.rank_nmps

    def execute_packet(self, packet, start_cycle=0, rank_of=None):
        """Run one packet on this PU; returns the completion cycle."""
        completion, _ = self.dimm_nmp.execute_packet(
            packet, start_cycle=start_cycle, rank_of=rank_of)
        return completion

    def stats(self):
        return self.dimm_nmp.aggregate_stats()

    def reset(self):
        self.dimm_nmp.reset()


class RecNMPChannel:
    """All RecNMP PUs on one memory channel.

    Parameters
    ----------
    num_dimms, ranks_per_dimm:
        Channel population (the paper sweeps 1x2, 1x4, 2x2, 2x4, 4x2).
    rank_config:
        Shared rank-NMP configuration.
    instruction_rate_per_cycle:
        NMP-Insts the host memory controller can push over the channel per
        DRAM cycle.  The compressed format achieves 2 per cycle (Fig. 9(b)).
    """

    def __init__(self, num_dimms=4, ranks_per_dimm=2, rank_config=None,
                 instruction_rate_per_cycle=2.0):
        if num_dimms <= 0 or ranks_per_dimm <= 0:
            raise ValueError("num_dimms and ranks_per_dimm must be positive")
        self.num_dimms = int(num_dimms)
        self.ranks_per_dimm = int(ranks_per_dimm)
        self.rank_config = rank_config or RankNMPConfig()
        self.instruction_rate_per_cycle = float(instruction_rate_per_cycle)
        self.processing_units = [
            RecNMPProcessingUnit(num_ranks=ranks_per_dimm,
                                 rank_config=self.rank_config,
                                 dimm_index=d)
            for d in range(self.num_dimms)
        ]
        self._rank_nmps = [rank_nmp for pu in self.processing_units
                           for rank_nmp in pu.rank_nmps]

    # ------------------------------------------------------------------ #
    @property
    def num_ranks(self):
        """Total concurrently-activatable ranks on the channel."""
        return self.num_dimms * self.ranks_per_dimm

    def rank_nmp(self, channel_rank_index):
        """Rank-NMP module for a channel-wide rank index."""
        dimm, rank = divmod(channel_rank_index, self.ranks_per_dimm)
        return self.processing_units[dimm].rank_nmps[rank]

    def all_rank_nmps(self):
        """All rank-NMP modules of the channel, in channel-rank order."""
        return list(self._rank_nmps)

    # ------------------------------------------------------------------ #
    def execute_packet(self, packet, start_cycle=0, rank_of_instruction=None,
                       ranks=None, order=None):
        """Execute one packet across all ranks of the channel.

        ``ranks`` optionally carries the per-instruction channel-rank
        indices, aligned with the packet's instructions (the memory
        controller computes them once per packet); otherwise
        ``rank_of_instruction`` maps each instruction (default: Daddr
        modulo rank count).  ``order`` optionally gives the issue order as
        a permutation of the packet's instructions (the controller's
        FR-FCFS reorder); by default they issue in packet order.  Returns
        the packet completion cycle.
        """
        packed = packet.packed_arrays()
        if ranks is None:
            if rank_of_instruction is None:
                ranks = packed.daddrs % self.num_ranks
            else:
                ranks = [rank_of_instruction(inst)
                         for inst in packet.instructions]
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
        ``start_cycle + int(i / rate)``.  One stable argsort groups the
        issue sequence by rank, keeping issue order within each rank;
        every column is gathered in that order once, decoded into bank
        group / bank / row once, and each rank-NMP runs its contiguous
        span: array slices for a bound kernel, otherwise slices of the
        columns' ``tolist()``.  The packet completes when the slowest rank
        finishes and the adder tree plus one DIMM.Sum transfer per pooled
        output drain.
        """
        count = len(packed)
        if count == 0:
            return start_cycle
        num_ranks = self.num_ranks
        ranks = np.asarray(ranks, dtype=np.int64)
        require_valid_ranks(ranks, num_ranks)
        if order is not None:
            ranks = ranks[order]
        by_rank = np.argsort(ranks, kind="stable")
        gather = by_rank if order is None else order[by_rank]
        daddrs = packed.daddrs[gather]
        columns = [daddrs, packed.vsizes[gather], packed.weighted[gather],
                   packed.localities[gather], packed.psum_tags[gather],
                   start_cycle + (by_rank / self.instruction_rate_per_cycle)
                   .astype(np.int64)]
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
        dimm_nmp = self.processing_units[0].dimm_nmp
        return (max(per_rank_last) + dimm_nmp.adder_tree_latency_cycles
                + dimm_nmp.sum_transfer_cycles * packed.num_poolings)

    def rank_load(self, packet, rank_of_instruction=None):
        """Per-rank instruction counts for one packet."""
        if rank_of_instruction is None:
            rank_of_instruction = \
                lambda inst: int(inst.daddr) % self.num_ranks  # noqa: E731
        counts = [0] * self.num_ranks
        for instruction in packet.instructions:
            counts[rank_of_instruction(instruction)] += 1
        return counts

    def aggregate_stats(self):
        """Aggregate statistics across all PUs of the channel."""
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
        for rank_nmp in self.all_rank_nmps():
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
        for pu in self.processing_units:
            pu.reset()
