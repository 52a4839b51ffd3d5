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
from repro.core.instruction import NMPInstruction
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
    rank_of_address:
        Callable mapping a physical byte address to a channel-wide rank
        index; defaults to 64 B-block interleaving across ranks.
    reorder_window:
        FR-FCFS reordering window *within* a packet: instructions to the
        same DRAM row within the window are grouped to increase row-buffer
        hits (the host-side controller does the heavy lifting of request
        reordering per the paper).
    ranks_of_addresses:
        Optional vectorised counterpart of ``rank_of_address``: a callable
        mapping a numpy array of physical byte addresses to a numpy array
        of rank indices.  When given, the per-packet rank computation runs
        as one array operation instead of one Python call per instruction.
        Only valid for *stateless* mappings (a stateful mapping such as
        first-touch page colouring depends on call order and must come in
        as the scalar ``rank_of_address``).
    """

    def __init__(self, num_ranks=8, scheduling_policy="table-aware",
                 rank_of_address=None, reorder_window=16,
                 ranks_of_addresses=None):
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        self.num_ranks = int(num_ranks)
        self.scheduler = PacketScheduler(policy=scheduling_policy)
        if rank_of_address is None:
            rank_of_address = lambda address: \
                (address // 64) % self.num_ranks  # noqa: E731
        self.rank_of_address = rank_of_address
        self.ranks_of_addresses = ranks_of_addresses
        self.reorder_window = int(reorder_window)
        self.stats = NMPControllerStats()

    # ------------------------------------------------------------------ #
    def submit(self, packets):
        """Submit the packet stream of one core / SLS thread."""
        packets = list(packets)
        self.scheduler.add_source(packets)
        self.stats.packets_received += len(packets)

    def rank_of_instruction(self, instruction):
        """Channel-wide rank index an NMP-Inst is routed to."""
        return self.rank_of_address(instruction.daddr * 64)

    def _packet_ranks(self, instructions):
        """Per-instruction rank indices, computed once per packet.

        Uses the vectorised ``ranks_of_addresses`` hook when available;
        otherwise falls back to one scalar ``rank_of_address`` call per
        instruction *in packet order* -- which is exactly the first-touch
        order a stateful mapping (page colouring) observed when the rank
        used to be recomputed inside every reorder scan, so assignments
        are unchanged.
        """
        if self.ranks_of_addresses is not None:
            daddrs = np.fromiter((inst.daddr for inst in instructions),
                                 dtype=np.int64, count=len(instructions))
            return self.ranks_of_addresses(daddrs * 64).tolist()
        rank_of_address = self.rank_of_address
        return [rank_of_address(inst.daddr * 64) for inst in instructions]

    def _reorder_permutation(self, instructions, ranks):
        """FR-FCFS issue order of one packet as a list of indices.

        Within a sliding window, instructions that target an already-open
        row (same row as the previous instruction to that rank) are hoisted
        to issue consecutively.  Ordering across PsumTags is irrelevant for
        correctness because each accumulates into its own register.  Rows
        are ``daddr // 128`` (128 columns per row); the permutation is the
        shared :func:`repro.core.kernels.reorder_indices`, so the object
        and packed dispatch paths issue in the same order.
        """
        _require_valid_ranks(ranks, min(ranks), max(ranks), self.num_ranks)
        rows = [inst.daddr // 128 for inst in instructions]
        return _kernels.reorder_indices(rows, ranks, self.reorder_window,
                                        self.num_ranks).tolist()

    def _reorder_within_packet(self, packet):
        """FR-FCFS-style reordering of instructions inside one packet."""
        instructions = list(packet.instructions)
        if len(instructions) <= 2:
            return instructions
        ranks = self._packet_ranks(instructions)
        return [instructions[i]
                for i in self._reorder_permutation(instructions, ranks)]

    # ------------------------------------------------------------------ #
    def dispatch(self, channel, reorder=True):
        """Schedule all submitted packets and execute them on ``channel``.

        Returns ``(total_cycles, per_packet_completions)`` where completions
        are measured relative to each packet's own start (latency), and the
        packets are issued back to back (the channel pipeline overlaps the
        rank work of consecutive packets through the rank-NMP state).

        Per packet, the instruction->rank mapping is computed exactly once
        and threaded through the reorder pass, the per-rank statistics and
        ``channel.execute_packet`` (instead of re-deriving it per window
        scan and then again for the stats).
        """
        order = self.scheduler.schedule()
        per_packet = []
        current_cycle = 0
        per_rank_counts = self.stats.per_rank_instructions
        # Small packets stay on the object path: the numpy packing and
        # per-call fixed costs only pay for themselves past a
        # flavour-dependent packet size (both paths are bit-identical,
        # so mixing them within one dispatch is safe).
        packed_min = _kernels.packed_dispatch_min_instructions()
        for packet in order:
            if len(packet.instructions) >= packed_min:
                current_cycle, latency = self._dispatch_packed(
                    channel, packet, current_cycle, reorder,
                    per_rank_counts)
                per_packet.append(latency)
                continue
            instructions = list(packet.instructions)
            ranks = self._packet_ranks(instructions)
            if reorder and len(instructions) > 2:
                permutation = self._reorder_permutation(instructions, ranks)
                instructions = [instructions[i] for i in permutation]
                ranks = [ranks[i] for i in permutation]
            issue_packet = _ReorderedPacketView(packet, instructions)
            self.stats.counter_configurations += 1
            completion = channel.execute_packet(
                issue_packet, start_cycle=current_cycle,
                rank_of_instruction=self.rank_of_instruction,
                ranks=ranks)
            per_packet.append(completion - current_cycle)
            for rank in ranks:
                per_rank_counts[rank] = per_rank_counts.get(rank, 0) + 1
            self.stats.instructions_issued += len(instructions)
            self.stats.packets_issued += 1
            current_cycle = completion
        return current_cycle, per_packet

    def _dispatch_packed(self, channel, packet, current_cycle, reorder,
                         per_rank_counts):
        """Array-native dispatch of one packet (no instruction objects).

        Bit-identical to the object path: same rank mapping (scalar calls
        stay in packet order for stateful mappings), same FR-FCFS
        permutation, same back-to-back packet timing.  Returns
        ``(completion, latency)``.
        """
        packed = packet.packed_arrays()
        daddrs = packed.daddrs
        count = len(daddrs)
        if self.ranks_of_addresses is not None:
            ranks = np.asarray(self.ranks_of_addresses(daddrs * 64),
                               dtype=np.int64)
        else:
            rank_of_address = self.rank_of_address
            ranks = np.fromiter(
                (rank_of_address(daddr * 64)
                 for daddr in daddrs.tolist()),
                np.int64, count)
        if count:
            _require_valid_ranks(ranks, int(ranks.min()), int(ranks.max()),
                                 self.num_ranks)
        if reorder and count > 2:
            permutation = _kernels.reorder_indices(
                daddrs // 128, ranks, self.reorder_window, self.num_ranks)
            packed = packed.take(permutation)
            ranks = ranks[permutation]
        self.stats.counter_configurations += 1
        completion = channel.execute_packed(
            packed, start_cycle=current_cycle, ranks=ranks)
        if count:
            counts = np.bincount(ranks)
            for rank, rank_count in enumerate(counts.tolist()):
                if rank_count:
                    per_rank_counts[rank] = \
                        per_rank_counts.get(rank, 0) + rank_count
        self.stats.instructions_issued += count
        self.stats.packets_issued += 1
        return completion, completion - current_cycle

    def reset(self):
        """Clear queued packets and statistics."""
        self.scheduler.clear()
        self.stats = NMPControllerStats()


def _require_valid_ranks(ranks, low, high, num_ranks):
    """Raise unless every rank (spanning ``[low, high]``) is in range.

    Checked before the FR-FCFS reorder, which indexes its per-rank
    open-row table by rank: a negative rank would wrap around silently.
    """
    if low < 0 or high >= num_ranks:
        bad = next(rank for rank in ranks if not 0 <= rank < num_ranks)
        raise ValueError("invalid rank %d for instruction" % int(bad))


class _ReorderedPacketView:
    """A lightweight packet proxy exposing reordered instructions.

    ``__slots__`` keeps the proxy explicit: its own state is exactly
    ``(_packet, instructions, num_poolings)``, a mistyped assignment
    raises instead of silently creating an attribute that the
    ``__getattr__`` delegation would then mask, and ``num_poolings`` is
    computed once at construction instead of rebuilding a set of PsumTags
    on every access (the channel reads it per packet completion).
    """

    __slots__ = ("_packet", "instructions", "num_poolings")

    def __init__(self, packet, instructions):
        self._packet = packet
        self.instructions = instructions
        self.num_poolings = len({inst.psum_tag for inst in instructions})

    def __len__(self):
        return len(self.instructions)

    def __getattr__(self, name):
        return getattr(self._packet, name)
