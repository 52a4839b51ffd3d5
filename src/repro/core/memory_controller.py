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
from repro.core.scheduler import fcfs_interleaved_order, table_aware_order

#: The packet order of each scheduling policy (Section III-D).
_SCHEDULES = {"fcfs": fcfs_interleaved_order,
              "table-aware": table_aware_order}


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
        if scheduling_policy not in _SCHEDULES:
            raise ValueError("unknown scheduling policy %r; expected one of %s"
                             % (scheduling_policy, tuple(_SCHEDULES)))
        self.num_ranks = int(num_ranks)
        self._schedule = _SCHEDULES[scheduling_policy]
        # The packet list of each submitted source, until a dispatch.
        self._sources = []
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
        self._sources.append(packets)
        self.stats.packets_received += len(packets)

    def _take_schedule(self):
        """Every packet submitted since the last dispatch, in issue order
        under the scheduling policy; empties the queue."""
        sources, self._sources = self._sources, []
        return self._schedule(sources)

    def _issue_orders(self, packed_list, reorder=True):
        """Ranks and FR-FCFS issue order of one dispatch's packets.

        ``packed_list`` holds the packets' columns in schedule order.
        Returns ``(ranks, order)``: ``ranks`` the int64 channel-rank index
        of every instruction of every packet, concatenated in schedule
        order, and ``order`` every instruction's index in issue order
        (None when every packet issues in packet order) -- each packet's
        indices stay within its own span.

        Ranks come from one ``ranks_of_addresses`` call over the
        dispatch's addresses in schedule order -- the first-touch order a
        stateful mapping (page colouring) depends on.  They are validated
        once, so an invalid rank raises before any packet runs.  Within a
        sliding window, instructions that target an already-open row (same
        row as the previous instruction to that rank) are hoisted to issue
        consecutively; ordering across PsumTags is irrelevant for
        correctness because each accumulates into its own register.  Rows
        are ``daddr // 128`` (128 columns per row); the rows, ranks and
        which of their keys recur are computed once for the dispatch
        (:func:`~repro.core.kernels.reorder_packets`).
        """
        daddrs = np.concatenate([packed.daddrs for packed in packed_list]) \
            if packed_list else np.zeros(0, np.int64)
        ranks = np.asarray(self.ranks_of_addresses(daddrs * 64),
                           dtype=np.int64)
        require_valid_ranks(ranks, self.num_ranks)
        if not reorder:
            return ranks, None
        bounds = [0]
        for packed in packed_list:
            bounds.append(bounds[-1] + len(packed))
        return ranks, _kernels.reorder_packets(
            daddrs // 128, ranks, bounds, self.reorder_window,
            self.num_ranks)

    # ------------------------------------------------------------------ #
    def dispatch(self, channel, reorder=True):
        """Schedule the packets submitted since the last dispatch and
        execute them on ``channel``; the queue is empty afterwards.

        Returns ``(total_cycles, per_packet_completions)`` where completions
        are measured relative to each packet's own start (latency), and the
        packets are issued back to back: each starts when the previous one
        completed, and the rank-NMP state carries over.

        Everything that does not depend on a packet's start cycle is
        computed once for the whole dispatch: the instruction->rank
        mapping and its validation, the FR-FCFS issue orders, the
        per-rank counts and the channel's column layout
        (``channel._prepare``: the per-rank split, the bank decode and
        the per-packet PsumTag counts).  Each packet then enters the
        channel once, with its slice of that layout as the private
        ``_prepared`` argument: packets below the flavor's packed cutover
        through ``channel.execute_packet``, larger ones through
        ``channel.execute_packed``.  Both run the same loop, so the
        choice only names the entry point.
        """
        order = self._take_schedule()
        packed_list = [packet.instructions for packet in order]
        ranks, issue = self._issue_orders(packed_list, reorder)
        prepared = channel._prepare(packed_list, ranks, issue) \
            if packed_list else None
        per_packet = []
        current_cycle = 0
        packed_min = _kernels.packed_dispatch_min_instructions()
        for index, (packet, packed) in enumerate(zip(order, packed_list)):
            self.stats.counter_configurations += 1
            if len(packed) >= packed_min:
                completion = channel.execute_packed(
                    packed, start_cycle=current_cycle,
                    _prepared=(prepared, index))
            else:
                completion = channel.execute_packet(
                    packet, start_cycle=current_cycle,
                    _prepared=(prepared, index))
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
