"""Host-side memory controller with the NMP extension (Fig. 10(d)).

The NMP extension adds, next to the regular FR-FCFS read/write queues, an
NMP packet queue with its own scheduling and arbitration: packets from
parallel cores are queued, scheduled (optionally table-aware), decoded into
NMP-Insts, translated from physical to DRAM addresses, and streamed to the
RecNMP processing units over the channel.  The FR-FCFS reordering applies
*within* a packet only, never across packets, so partial-sum accumulation
counters stay consistent.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core import kernels as _kernels
from repro.core.processing_unit import require_valid_ranks
from repro.core.scheduler import PacketScheduler


@dataclass
class NMPControllerStats:
    """Counters of the NMP-extended memory controller."""

    packets_received: int = 0
    packets_issued: int = 0
    instructions_issued: int = 0
    counter_configurations: int = 0
    per_rank_instructions: dict = field(default_factory=dict)


class NMPMemoryController:
    """Queue, schedule and dispatch NMP packets to a RecNMP channel.

    Parameters
    ----------
    num_ranks:
        Channel-wide rank count of the attached RecNMP channel.
    scheduling_policy:
        ``"fcfs"`` or ``"table-aware"`` (Section III-D).
    ranks_of_addresses:
        Callable mapping a numpy array of physical byte addresses, in
        schedule order, to an array of channel-wide rank indices; called
        once per dispatch.  Defaults to 64 B-block interleaving across
        ranks.  A stateful mapping (first-touch page colouring) sees the
        addresses in the order their instructions issue.
    reorder_window:
        FR-FCFS reordering window *within* a packet: instructions to the
        same DRAM row within the window are grouped to increase row-buffer
        hits (the host-side controller does the heavy lifting of request
        reordering per the paper).
    """

    def __init__(self, num_ranks=8, scheduling_policy="table-aware",
                 ranks_of_addresses=None, reorder_window=16):
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        self.num_ranks = int(num_ranks)
        self.scheduler = PacketScheduler(policy=scheduling_policy)
        if ranks_of_addresses is None:
            ranks_of_addresses = lambda addresses: \
                (addresses // 64) % self.num_ranks  # noqa: E731
        self.ranks_of_addresses = ranks_of_addresses
        self.reorder_window = int(reorder_window)
        self.stats = NMPControllerStats()

    # ------------------------------------------------------------------ #
    def submit(self, packets):
        """Submit the packet stream of one core / SLS thread."""
        packets = list(packets)
        self.scheduler.add_source(packets)
        self.stats.packets_received += len(packets)

    def _issue_orders(self, packed_list, reorder=True):
        """Ranks and FR-FCFS issue orders of one dispatch's packets.

        ``packed_list`` holds the packets' columns in schedule order.
        Returns ``(ranks, issue)``: ``ranks`` the int64 channel-rank index
        of every instruction of every packet, concatenated in schedule
        order, and ``issue`` one ``(packet_ranks, permutation)`` pair per
        packet -- its slice of ``ranks`` and its issue order as an index
        array (None when the packet issues in packet order).

        Ranks come from one ``ranks_of_addresses`` call over the
        dispatch's addresses in schedule order -- the first-touch order a
        stateful mapping (page colouring) depends on.  They are validated
        once, so an invalid rank raises before any packet runs.  Within a
        sliding window, instructions that target an already-open row (same
        row as the previous instruction to that rank) are hoisted to issue
        consecutively; ordering across PsumTags is irrelevant for
        correctness because each accumulates into its own register.  Rows
        are ``daddr // 128`` (128 columns per row).
        """
        daddrs = np.concatenate([packed.daddrs for packed in packed_list]) \
            if packed_list else np.zeros(0, np.int64)
        ranks = np.asarray(self.ranks_of_addresses(daddrs * 64),
                           dtype=np.int64)
        require_valid_ranks(ranks, self.num_ranks)
        rows = daddrs // 128
        issue = []
        start = 0
        for packed in packed_list:
            end = start + len(packed)
            packet_ranks = ranks[start:end]
            permutation = None
            if reorder and end - start > 2:
                permutation = _kernels.reorder_indices(
                    rows[start:end], packet_ranks, self.reorder_window,
                    self.num_ranks)
            issue.append((packet_ranks, permutation))
            start = end
        return ranks, issue

    # ------------------------------------------------------------------ #
    def dispatch(self, channel, reorder=True):
        """Schedule all submitted packets and execute them on ``channel``.

        Returns ``(total_cycles, per_packet_completions)`` where completions
        are measured relative to each packet's own start (latency), and the
        packets are issued back to back (the channel pipeline overlaps the
        rank work of consecutive packets through the rank-NMP state).

        The instruction->rank mapping, its validation, the rows and the
        per-rank counts are computed once for the whole dispatch; each
        packet's FR-FCFS issue order is computed on its slice of them.
        Packets below the flavor's packed cutover go to
        ``channel.execute_packet`` with the issue order as a permutation;
        larger ones are gathered into issue order and go to
        ``channel.execute_packed``.  Both entry points run the same column
        routine, so the choice only moves where the gather happens.
        """
        order = self.scheduler.schedule()
        packed_list = [packet.instructions for packet in order]
        ranks, issue = self._issue_orders(packed_list, reorder)
        per_packet = []
        current_cycle = 0
        packed_min = _kernels.packed_dispatch_min_instructions()
        for packet, packed, (packet_ranks, permutation) in zip(
                order, packed_list, issue):
            self.stats.counter_configurations += 1
            if len(packed) >= packed_min:
                if permutation is not None:
                    packed = packed.take(permutation)
                    packet_ranks = packet_ranks[permutation]
                completion = channel.execute_packed(
                    packed, start_cycle=current_cycle, ranks=packet_ranks)
            else:
                completion = channel.execute_packet(
                    packet, start_cycle=current_cycle, ranks=packet_ranks,
                    order=permutation)
            per_packet.append(completion - current_cycle)
            self.stats.instructions_issued += len(packed)
            self.stats.packets_issued += 1
            current_cycle = completion
        per_rank_counts = self.stats.per_rank_instructions
        for rank, rank_count in enumerate(np.bincount(ranks).tolist()):
            if rank_count:
                per_rank_counts[rank] = \
                    per_rank_counts.get(rank, 0) + rank_count
        return current_cycle, per_packet

