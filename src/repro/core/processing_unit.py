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
        return [self.rank_nmp(r) for r in range(self.num_ranks)]

    # ------------------------------------------------------------------ #
    def execute_packet(self, packet, start_cycle=0, rank_of_instruction=None,
                       ranks=None):
        """Execute one packet across all ranks of the channel.

        ``rank_of_instruction`` maps an instruction to a channel-wide rank
        index (default: Daddr modulo rank count); ``ranks`` optionally
        carries the precomputed per-instruction rank indices (aligned with
        ``packet.instructions``) so the memory controller's once-per-packet
        mapping is not re-derived here.  Returns the packet completion
        cycle.
        """
        instructions = packet.instructions
        count = len(instructions)
        if ranks is None:
            if rank_of_instruction is None:
                num_ranks = self.num_ranks
                ranks = [int(inst.daddr) % num_ranks
                         for inst in instructions]
            else:
                ranks = [rank_of_instruction(inst)
                         for inst in instructions]
        # Decode every instruction's (bank group, bank, row) once for the
        # whole packet -- the rank config is shared by all rank-NMPs, so
        # one vectorised pass replaces a per-instruction decode in each
        # rank's scheduler.
        bank_groups, bank_indices, rows = (
            column.tolist() for column in _kernels.pack_decoded(
                self.rank_config,
                np.fromiter((inst.daddr for inst in instructions),
                            dtype=np.int64, count=count)))
        # Group instructions per rank, preserving order; arrival times model
        # the shared C/A interface delivering instructions sequentially.
        rate = self.instruction_rate_per_cycle
        num_ranks = self.num_ranks
        per_rank = {}
        for position, instruction in enumerate(instructions):
            rank = ranks[position]
            if not 0 <= rank < num_ranks:
                raise ValueError("invalid rank %d for instruction" % rank)
            entry = per_rank.get(rank)
            if entry is None:
                entry = ([], [], ([], [], []))
                per_rank[rank] = entry
            entry[0].append(instruction)
            entry[1].append(start_cycle + int(position / rate))
            decoded = entry[2]
            decoded[0].append(bank_groups[position])
            decoded[1].append(bank_indices[position])
            decoded[2].append(rows[position])
        per_rank_last = []
        for rank_index in sorted(per_rank):
            rank_instructions, arrivals, decoded = per_rank[rank_index]
            rank_nmp = self.rank_nmp(rank_index)
            per_rank_last.append(rank_nmp.execute_instructions(
                rank_instructions, arrival_cycles=arrivals,
                decoded=decoded))
        if not per_rank_last:
            return start_cycle
        slowest = max(per_rank_last)
        # Adder-tree + DIMM.Sum transfer overhead (constant per packet, one
        # transfer cycle per pooled output).
        dimm_nmp = self.processing_units[0].dimm_nmp
        return (slowest + dimm_nmp.adder_tree_latency_cycles
                + dimm_nmp.sum_transfer_cycles * packet.num_poolings)

    def execute_packed(self, packed, start_cycle=0, ranks=None):
        """Array-native counterpart of :meth:`execute_packet`.

        ``packed`` is a :class:`~repro.core.instruction.PackedInstructions`
        already in issue order; ``ranks`` the aligned per-instruction
        channel-rank indices (int64 array; defaults to Daddr modulo rank
        count like the object path).  The per-rank split, C/A arrival
        times and completion math are vectorised but cycle-identical.
        """
        count = len(packed)
        if count == 0:
            return start_cycle
        num_ranks = self.num_ranks
        if ranks is None:
            ranks = packed.daddrs % num_ranks
        else:
            ranks = np.asarray(ranks, dtype=np.int64)
        if int(ranks.min()) < 0 or int(ranks.max()) >= num_ranks:
            bad = ranks[(ranks < 0) | (ranks >= num_ranks)][0]
            raise ValueError("invalid rank %d for instruction" % int(bad))
        arrivals = start_cycle + (np.arange(count)
                                  / self.instruction_rate_per_cycle) \
            .astype(np.int64)
        per_rank_last = []
        for rank_index in np.unique(ranks).tolist():
            idx = np.nonzero(ranks == rank_index)[0]
            rank_nmp = self.rank_nmp(rank_index)
            per_rank_last.append(rank_nmp.execute_packed(
                packed.take(idx), arrivals[idx]))
        slowest = max(per_rank_last)
        dimm_nmp = self.processing_units[0].dimm_nmp
        return (slowest + dimm_nmp.adder_tree_latency_cycles
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
