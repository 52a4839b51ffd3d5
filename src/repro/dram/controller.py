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

#: Cycle budget of one drain: a command that would issue more than this
#: many cycles after the drain started raises ``RuntimeError`` instead.
_MAX_DRAIN_CYCLES = 10_000_000
#: Larger than any readiness cycle: the empty minimum of a scheduler pass.
_NEVER = 1 << 62


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

    ``rank_ready``/``is_hit`` cache the bank+rank part of the readiness
    (:meth:`MemoryController._rank_ready`), computed at admission and again
    after every command to ``rank_index``; ``version`` is the controller's
    issue counter for that rank when they were computed.
    """

    __slots__ = ("request", "address", "outcome_recorded", "rank_index",
                 "rank", "bank", "version", "rank_ready", "is_hit")

    def __init__(self, request, address, rank_index, rank, bank):
        self.request = request
        self.address = address
        self.outcome_recorded = False
        self.rank_index = rank_index
        self.rank = rank
        self.bank = bank
        self.version = -1
        self.rank_ready = None
        self.is_hit = False


class MemoryController:
    """FR-FCFS controller for a single DRAM channel.

    The controller is event-driven and makes exactly one :meth:`_step`
    pass per issued command: the pass finds the earliest cycle any queued
    command can issue and the FR-FCFS pick at that cycle, jumps the clock
    there and issues it.  Between two issues no queue, admission or timing
    state changes, so that is exactly the cycle and the command a
    one-cycle-at-a-time loop would have issued.

    A command changes the state of one rank plus the channel's C/A slot
    and data bus, so each queued request caches the readiness its bank and
    rank impose, computed at admission and refreshed for that rank's
    requests after every command to it; the channel part is two scalars
    per pass.  ``Channel.issue`` then checks the command once against the
    full layered ``Channel`` -> ``Rank`` -> ``Bank`` constraint set before
    any state changes.

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
        # (request, decoded address or None) pairs not yet admitted.
        self._waiting = deque()
        # Commands issued to each rank: the readiness cache's version tag.
        self._rank_versions = [0] * self.channel.num_ranks
        # The queued requests of each rank, refreshed after its commands.
        self._rank_members = [[] for _ in range(self.channel.num_ranks)]
        self.stats = ControllerStats()

    # ------------------------------------------------------------------ #
    # Request admission                                                  #
    # ------------------------------------------------------------------ #
    def enqueue(self, request):
        """Submit a memory request; it is admitted when queue space allows."""
        self._submit(request, None)

    def _submit(self, request, address):
        """Queue ``request`` for admission.  ``address`` is its
        :class:`~repro.dram.address_mapping.DramAddress` when the caller
        already decoded it, else ``None`` (decoded at admission)."""
        if request.request_type is not RequestType.READ:
            raise NotImplementedError(
                "the RecNMP study only exercises read traffic")
        request.arrival_cycle = self.cycle
        self._waiting.append((request, address))
        self._admit_waiting()

    def _admit_waiting(self):
        channel = self.channel
        while self._waiting and len(self._queue) < self.queue_depth:
            request, address = self._waiting.popleft()
            if address is None:
                address = self.address_mapping.map(request.physical_address)
            rank_index = channel.global_rank_index(address.dimm,
                                                   address.rank)
            rank = channel.rank(rank_index)
            bank = rank.bank(address.bank_group, address.bank)
            pending = _PendingRequest(request, address, rank_index, rank,
                                      bank)
            pending.rank_ready, pending.is_hit = self._rank_ready(pending)
            pending.version = self._rank_versions[rank_index]
            self._queue.append(pending)
            self._rank_members[rank_index].append(pending)

    @property
    def pending_requests(self):
        """Number of requests still queued or waiting for admission."""
        return len(self._queue) + len(self._waiting)

    # ------------------------------------------------------------------ #
    # Scheduling                                                         #
    # ------------------------------------------------------------------ #
    def _rank_ready(self, pending):
        """Earliest issue cycle of ``pending``'s next command under its
        bank's and rank's constraints, and whether that command is a
        row-hit RD.

        The next command is RD on a row hit, ACT on a closed bank and PRE
        on a row conflict.  The result reads only the state of
        ``pending``'s rank, so it stays valid until a command issues to
        that rank.  It is not clamped to the current cycle.
        """
        bank = pending.bank
        open_row = bank.open_row
        if open_row == pending.address.row:
            timing = self.timing
            rank = pending.rank
            ready = bank.next_read
            last_col = rank._last_col_cycle
            if last_col is not None:
                ccd = last_col + (
                    timing.tCCD_L
                    if pending.address.bank_group == rank._last_col_bank_group
                    else timing.tCCD_S)
                if ccd > ready:
                    ready = ccd
            # The burst must find the rank's data bus free.
            bus = rank.next_data_bus_free - timing.tCL
            if bus > ready:
                ready = bus
            return ready, True
        if open_row is None:
            timing = self.timing
            rank = pending.rank
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
        return bank.next_pre, False

    def _channel_floors(self):
        """The channel part of every request's readiness: the earliest
        cycle the channel lets an ACT or PRE issue (the C/A slot), and a
        RD whose burst comes from the rank that sent the last one or from
        any other rank (which also pays the rank-to-rank switch penalty;
        both RD floors include the C/A slot)."""
        channel = self.channel
        ca_free = channel.next_ca_free
        same_rank = channel.next_data_free - self.timing.tCL
        other_rank = same_rank
        if channel._last_data_rank is not None:
            other_rank += channel.rank_to_rank_penalty
        if ca_free > same_rank:
            same_rank = ca_free
        if ca_free > other_rank:
            other_rank = ca_free
        return ca_free, same_rank, other_rank

    def _ready_cycle(self, pending):
        """Earliest issue cycle of ``pending``'s next command, and whether
        that command is a row-hit RD.

        The bank+rank part (:meth:`_rank_ready`, recomputed here) combined
        with the channel part (:meth:`_channel_floors`): the same
        constraint set ``Channel.earliest_issue_cycle`` and the
        ``Rank``/``Bank`` checks under it apply, not clamped to the
        current cycle.
        """
        ready, is_hit = self._rank_ready(pending)
        floor, same_rank, other_rank = self._channel_floors()
        if is_hit:
            floor = (same_rank
                     if pending.rank_index == self.channel._last_data_rank
                     else other_rank)
        if floor > ready:
            ready = floor
        return ready, is_hit

    def _step(self, last_cycle):
        """Admit waiting requests, then issue the FR-FCFS pick at the
        earliest cycle any queued command is ready: the first ready row hit
        in arrival order, else the oldest ready request.

        Readiness is :meth:`_ready_cycle`'s, with the bank+rank part read
        from each request's cache.  Returns ``False``, issuing nothing,
        when that cycle is past ``last_cycle``.
        """
        if self._waiting:
            self._admit_waiting()
        # The clock is the channel's next free C/A slot (both start at 0
        # and an issue at ``c`` moves both to ``c + 1``), so no readiness
        # below is earlier than ``cycle``.
        cycle = self.cycle
        ca_free, same_rank, other_rank = self._channel_floors()
        last_data_rank = self.channel._last_data_rank
        earliest = _NEVER
        # The first row hit and the first other request ready at
        # ``earliest``, in queue (arrival) order.
        hit = other = None
        for pending in self._queue:
            ready = pending.rank_ready
            if pending.is_hit:
                floor = same_rank if pending.rank_index == last_data_rank \
                    else other_rank
                if floor > ready:
                    ready = floor
                if ready < earliest:
                    earliest = ready
                    other = None
                elif ready > earliest or hit is not None:
                    continue
                hit = pending
                if ready == cycle:
                    # Nothing issues earlier and no hit at ``cycle`` is
                    # older: this is the pick.
                    break
            else:
                if ca_free > ready:
                    ready = ca_free
                if ready < earliest:
                    earliest = ready
                    hit = None
                    other = pending
                elif ready == earliest and other is None:
                    other = pending
        if earliest > last_cycle:
            return False
        self.cycle = earliest
        self._issue_for(hit if hit is not None else other)
        self.cycle = earliest + 1
        return True

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
        rank_index = pending.rank_index
        data_done = self.channel.issue(command, rank_index,
                                       address.bank_group, address.bank,
                                       row, self.cycle)
        self.stats.commands_issued += 1
        if command is CommandType.RD:
            self._complete(pending, data_done)
        # Only this rank's state changed: refresh its requests' caches.
        version = self._rank_versions[rank_index] + 1
        self._rank_versions[rank_index] = version
        rank_ready = self._rank_ready
        for member in self._rank_members[rank_index]:
            member.rank_ready, member.is_hit = rank_ready(member)
            member.version = version

    def _complete(self, pending, completion_cycle):
        pending.request.completion_cycle = completion_cycle
        latency = completion_cycle - pending.request.arrival_cycle
        self.stats.requests_completed += 1
        self.stats.total_latency_cycles += latency
        self.stats.latencies.append(latency)
        self._queue.remove(pending)
        self._rank_members[pending.rank_index].remove(pending)

    # ------------------------------------------------------------------ #
    # Simulation loop                                                    #
    # ------------------------------------------------------------------ #
    def run_until_drained(self, max_cycles=None):
        """Step until all queued requests complete.  Raises
        ``RuntimeError`` instead of issuing a command more than
        ``max_cycles`` (default ``_MAX_DRAIN_CYCLES``) after the start."""
        if max_cycles is None:
            max_cycles = _MAX_DRAIN_CYCLES
        last_cycle = self.cycle + max_cycles
        queue, waiting = self._queue, self._waiting
        while queue or waiting:
            if not self._step(last_cycle):
                _raise_undrained(max_cycles)
        self.stats.cycles_elapsed = self.cycle
        return self.stats

    def process_trace(self, physical_addresses, batch_size=None):
        """Convenience helper: enqueue a read for every address and drain.

        ``batch_size`` optionally throttles admission so that at most that
        many requests are outstanding at once (mimicking a core's MSHR
        limit); ``None`` enqueues everything up front.
        """
        check_outstanding_limit("batch_size", batch_size)
        return self._process_bursts(
            [(int(address), None) for address in physical_addresses],
            batch_size)

    def _process_bursts(self, bursts, batch_size):
        """:meth:`process_trace` over ``(physical_address, decoded)``
        pairs, ``decoded`` being the burst's ``DramAddress`` or ``None``
        to decode it at admission.  ``batch_size`` is already checked."""
        if batch_size is None:
            for physical_address, address in bursts:
                self._submit(MemoryRequest(physical_address=physical_address),
                             address)
            return self.run_until_drained()
        max_cycles = _MAX_DRAIN_CYCLES
        last_cycle = self.cycle + max_cycles
        queue, waiting = self._queue, self._waiting
        total = len(bursts)
        index = 0
        while index < total or queue or waiting:
            while index < total and len(queue) + len(waiting) < batch_size:
                physical_address, address = bursts[index]
                self._submit(MemoryRequest(physical_address=physical_address),
                             address)
                index += 1
            if not self._step(last_cycle):
                _raise_undrained(max_cycles)
        self.stats.cycles_elapsed = self.cycle
        return self.stats


def _raise_undrained(max_cycles):
    raise RuntimeError(
        "controller did not drain within %d cycles" % max_cycles)


def check_outstanding_limit(name, limit):
    """Reject an outstanding-request cap below one (``None`` = unbounded):
    a throttled run admits nothing under such a cap and never drains."""
    if limit is not None and limit < 1:
        raise ValueError("%s must be at least 1 (or None for no limit), "
                         "got %r" % (name, limit))
