"""Host-side FR-FCFS memory controller.

The controller owns one channel.  Requests arrive as
:class:`~repro.dram.commands.MemoryRequest` objects; each 64-byte burst is
scheduled with the First-Ready, First-Come-First-Served policy: among queued
requests whose next DDR command is ready to issue, row-buffer hits win, ties
broken by age.  An open-page policy keeps rows open after a read.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.dram.address_mapping import SkylakeAddressMapping
from repro.dram.channel import Channel
from repro.dram.commands import CommandType, MemoryRequest, RequestType
from repro.dram.timing import DDR4_2400


@dataclass
class ControllerStats:
    """Aggregated controller statistics."""

    requests_completed: int = 0
    total_latency_cycles: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    commands_issued: int = 0
    cycles_elapsed: int = 0
    latencies: list = field(default_factory=list)

    @property
    def average_latency_cycles(self):
        if not self.requests_completed:
            return 0.0
        return self.total_latency_cycles / self.requests_completed

    @property
    def row_hit_rate(self):
        total = self.row_hits + self.row_misses + self.row_conflicts
        if not total:
            return 0.0
        return self.row_hits / total


class _PendingRequest:
    """Book-keeping wrapper around a queued memory request.

    The request is decoded once, at admission: the channel-wide rank index
    and the ``Rank``/``Bank`` objects it targets are cached here so the
    per-pass readiness check never goes through the range-checked lookups.
    """

    __slots__ = ("request", "address", "arrival_cycle", "outcome_recorded",
                 "rank_index", "rank", "bank")

    def __init__(self, request, address, arrival_cycle, rank_index, rank,
                 bank):
        self.request = request
        self.address = address
        self.arrival_cycle = arrival_cycle
        self.outcome_recorded = False
        self.rank_index = rank_index
        self.rank = rank
        self.bank = bank


class MemoryController:
    """FR-FCFS controller for a single DRAM channel.

    The controller is event-driven: each :meth:`_step` either issues the
    FR-FCFS pick or, when no queued command is ready, jumps the clock to the
    earliest cycle one becomes ready.  Between two issues no queue, admission
    or timing state changes, so the jump lands on exactly the cycle a
    one-cycle-at-a-time loop would have issued at.

    Parameters
    ----------
    timing:
        DDR4 timing parameters.
    num_dimms, ranks_per_dimm:
        Channel population.
    address_mapping:
        An address-mapping object with a ``map(physical_address)`` method.
        Defaults to the Skylake-style mapping.
    queue_depth:
        Read-queue capacity (Table I: 32 entries).
    """

    def __init__(self, timing=None, num_dimms=1, ranks_per_dimm=2,
                 address_mapping=None, queue_depth=32, channel_index=0):
        self.timing = timing or DDR4_2400
        self.channel = Channel(self.timing, num_dimms=num_dimms,
                               ranks_per_dimm=ranks_per_dimm,
                               channel_index=channel_index)
        self.address_mapping = address_mapping or SkylakeAddressMapping()
        self.queue_depth = int(queue_depth)
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.cycle = 0
        self._queue = []
        self._waiting = deque()     # requests not yet admitted to the queue
        self.stats = ControllerStats()

    # ------------------------------------------------------------------ #
    # Request admission                                                  #
    # ------------------------------------------------------------------ #
    def enqueue(self, request):
        """Submit a memory request; it is admitted when queue space allows."""
        if request.request_type is not RequestType.READ:
            raise NotImplementedError(
                "the RecNMP study only exercises read traffic")
        request.arrival_cycle = self.cycle
        self._waiting.append(request)
        self._admit_waiting()

    def _admit_waiting(self):
        channel = self.channel
        while self._waiting and len(self._queue) < self.queue_depth:
            request = self._waiting.popleft()
            address = self.address_mapping.map(request.physical_address)
            rank_index = channel.global_rank_index(address.dimm,
                                                   address.rank)
            rank = channel.rank(rank_index)
            bank = rank.bank(address.bank_group, address.bank)
            self._queue.append(_PendingRequest(
                request, address, self.cycle, rank_index, rank, bank))

    @property
    def pending_requests(self):
        """Number of requests still queued or waiting for admission."""
        return len(self._queue) + len(self._waiting)

    # ------------------------------------------------------------------ #
    # Scheduling                                                         #
    # ------------------------------------------------------------------ #
    def _ready_cycle(self, pending):
        """Earliest issue cycle of ``pending``'s next command, and whether
        that command is a row-hit RD.

        The next command is RD on a row hit, ACT on a closed bank and PRE
        on a row conflict.  The cycle is not clamped to the current one; it
        is the same constraint set ``Channel.earliest_issue_cycle`` (and the
        ``Rank``/``Bank`` checks under it) applies, read in one pass.
        """
        bank = pending.bank
        channel = self.channel
        ready = channel.next_ca_free
        open_row = bank.open_row
        if open_row == pending.address.row:
            timing = self.timing
            rank = pending.rank
            if bank.next_read > ready:
                ready = bank.next_read
            last_col = rank._last_col_cycle
            if last_col is not None:
                ccd = last_col + (
                    timing.tCCD_L
                    if pending.address.bank_group == rank._last_col_bank_group
                    else timing.tCCD_S)
                if ccd > ready:
                    ready = ccd
            # The burst must find both the rank's and the channel's data
            # bus free (plus the rank-to-rank switch penalty).
            bus = rank.next_data_bus_free - timing.tCL
            if bus > ready:
                ready = bus
            bus = channel.next_data_free
            last_rank = channel._last_data_rank
            if last_rank is not None and last_rank != pending.rank_index:
                bus += channel.rank_to_rank_penalty
            bus -= timing.tCL
            if bus > ready:
                ready = bus
            return ready, True
        if open_row is None:
            timing = self.timing
            rank = pending.rank
            if bank.next_act > ready:
                ready = bank.next_act
            history = rank._act_history
            if len(history) >= 4:
                faw = history[-4] + timing.tFAW
                if faw > ready:
                    ready = faw
            last_act = rank._last_act_cycle
            if last_act is not None:
                rrd = last_act + (
                    timing.tRRD_L
                    if pending.address.bank_group == rank._last_act_bank_group
                    else timing.tRRD_S)
                if rrd > ready:
                    ready = rrd
            return ready, False
        if bank.next_pre > ready:
            ready = bank.next_pre
        return ready, False

    def _step(self):
        """Admit waiting requests, then issue the FR-FCFS pick (ready row
        hits first, then the oldest ready request) or, if nothing is ready,
        advance the clock to the earliest cycle something is."""
        self._admit_waiting()
        cycle = self.cycle
        best = None
        earliest = None
        for pending in self._queue:
            ready, is_hit = self._ready_cycle(pending)
            if ready <= cycle:
                if is_hit:
                    # Queue order is arrival order, so the first ready hit
                    # is already the oldest ready hit.
                    best = pending
                    break
                if best is None:
                    best = pending
            elif earliest is None or ready < earliest:
                earliest = ready
        if best is not None:
            self._issue_for(best)
            self.cycle = cycle + 1
        elif earliest is not None:
            self.cycle = earliest
        else:
            self.cycle = cycle + 1

    def _issue_for(self, pending):
        address = pending.address
        bank = pending.bank
        row = address.row
        if bank.open_row == row:
            command = CommandType.RD
        elif bank.open_row is None:
            command = CommandType.ACT
        else:
            command = CommandType.PRE
        if not pending.outcome_recorded:
            # Record hit/miss/conflict once, at the first command issued on
            # behalf of this request.
            if command is CommandType.RD:
                self.stats.row_hits += 1
            elif command is CommandType.ACT:
                self.stats.row_misses += 1
            else:
                self.stats.row_conflicts += 1
            bank.record_access_outcome(row)
            pending.outcome_recorded = True
        data_done = self.channel.issue(command, pending.rank_index,
                                       address.bank_group, address.bank,
                                       row, self.cycle)
        self.stats.commands_issued += 1
        if command is CommandType.RD:
            self._complete(pending, data_done)

    def _complete(self, pending, completion_cycle):
        pending.request.completion_cycle = completion_cycle
        latency = completion_cycle - pending.request.arrival_cycle
        self.stats.requests_completed += 1
        self.stats.total_latency_cycles += latency
        self.stats.latencies.append(latency)
        self._queue.remove(pending)

    # ------------------------------------------------------------------ #
    # Simulation loop                                                    #
    # ------------------------------------------------------------------ #
    def run_until_drained(self, max_cycles=10_000_000):
        """Step until all queued requests complete (or ``max_cycles``)."""
        start_cycle = self.cycle
        while self.pending_requests:
            if self.cycle - start_cycle > max_cycles:
                raise RuntimeError(
                    "controller did not drain within %d cycles" % max_cycles)
            self._step()
        self.stats.cycles_elapsed = self.cycle
        return self.stats

    def process_trace(self, physical_addresses, batch_size=None):
        """Convenience helper: enqueue a read for every address and drain.

        ``batch_size`` optionally throttles admission so that at most that
        many requests are outstanding at once (mimicking a core's MSHR
        limit); ``None`` enqueues everything up front.
        """
        addresses = list(physical_addresses)
        if batch_size is None:
            for address in addresses:
                self.enqueue(MemoryRequest(physical_address=int(address)))
            return self.run_until_drained()
        index = 0
        while index < len(addresses) or self.pending_requests:
            while (index < len(addresses)
                   and self.pending_requests < batch_size):
                self.enqueue(
                    MemoryRequest(physical_address=int(addresses[index])))
                index += 1
            self._step()
        self.stats.cycles_elapsed = self.cycle
        return self.stats
