"""Host-side FR-FCFS memory controller over flat DDR4 channel state.

The controller owns one channel.  Each 64-byte read burst is scheduled with
the First-Ready, First-Come-First-Served policy: among queued requests whose
next DDR command is ready to issue, row-buffer hits win, ties broken by
age.  An open-page policy keeps rows open after a read.

The channel's DDR4 state is flat lists, not objects: the bank and rank
columns of a :class:`~repro.dram.timing.DDR4State` (the layout the
rank-NMPs share), plus, per channel, the C/A slot (the controller's
clock), the data bus and the rank that sent the last burst.

:meth:`MemoryController._drain` runs a whole schedule as one loop with
that state loaded into locals and written back at the end, so it persists
from one drain to the next.  Each queued request caches the readiness its
bank and rank impose, and each rank the earliest of its row hits and of
its other requests, refreshed after every command to that rank; the
scheduler picks from that cache.  Every command it issues is then checked
once more against a fresh computation from the flat state -- the bank's
timing, tRRD, tFAW, tCCD, the rank's data bus, the channel's data bus with
the rank-switch penalty and the C/A slot.  With an exact cache the fresh
cycle is the one the command was picked for, so any other cycle, earlier
(a late cache) or later (an early one), raises ``RuntimeError`` before any
state changes.
"""

from dataclasses import dataclass, field

from repro.dram.address_mapping import SkylakeAddressMapping
from repro.dram.timing import DDR4_2400, NEVER, DDR4State, DDR4Timing

#: Cycle budget of one drain: a command that would issue more than this
#: many cycles after the drain started raises ``RuntimeError`` instead.
_MAX_DRAIN_CYCLES = 10_000_000
#: Extra cycles a burst waits for the data bus after another rank's burst.
_RANK_SWITCH_PENALTY = 1


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


class MemoryController:
    """FR-FCFS controller for a single DRAM channel.

    The controller is event-driven and makes exactly one scheduler pass
    per issued command: the pass finds the earliest cycle any queued
    command can issue and the FR-FCFS pick at that cycle, jumps the clock
    there and issues it.  Between two issues no queue, admission or timing
    state changes, so that is exactly the cycle and the command a
    one-cycle-at-a-time loop would have issued.

    Parameters
    ----------
    timing:
        DDR4 timing parameters.
    num_dimms, ranks_per_dimm:
        Channel population.
    address_mapping:
        A :class:`~repro.dram.address_mapping.SkylakeAddressMapping` (the
        default); its geometry gives the banks of each rank.
    queue_depth:
        Read-queue capacity (Table I: 32 entries).
    """

    def __init__(self, timing=None, num_dimms=1, ranks_per_dimm=2,
                 address_mapping=None, queue_depth=32, channel_index=0):
        self.timing = timing or DDR4_2400
        if not isinstance(self.timing, DDR4Timing):
            raise TypeError("timing must be a DDR4Timing instance")
        if num_dimms <= 0 or ranks_per_dimm <= 0:
            raise ValueError("num_dimms and ranks_per_dimm must be positive")
        self.address_mapping = address_mapping or SkylakeAddressMapping()
        self.queue_depth = int(queue_depth)
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.num_dimms = num_dimms
        self.ranks_per_dimm = ranks_per_dimm
        self.num_ranks = num_dimms * ranks_per_dimm
        self.channel_index = channel_index
        geometry = self.address_mapping.geometry
        #: The bank and rank state of the channel's ranks.
        self.state = DDR4State(
            self.num_ranks, geometry.bank_groups * geometry.banks_per_group)
        # Per channel: the clock is the next free C/A slot; the data bus
        # and the rank of its last burst (-1 = none yet).
        self.cycle = 0
        self._data_bus = 0
        self._last_data_rank = -1
        #: Completion cycle of every burst of the last drain, in
        #: submission order (-1 for one a failed drain did not complete).
        self.completion_cycles = []
        self.stats = ControllerStats()

    # ------------------------------------------------------------------ #
    # Trace submission                                                   #
    # ------------------------------------------------------------------ #
    def process_trace(self, physical_addresses, batch_size=None):
        """Read every address, in order, and drain.

        ``batch_size`` optionally throttles arrivals so that at most that
        many requests are outstanding at once (mimicking a core's MSHR
        limit); ``None`` submits everything up front.  Returns the
        cumulative :class:`ControllerStats`; :attr:`completion_cycles`
        holds each address's completion cycle.
        """
        check_outstanding_limit("batch_size", batch_size)
        columns = self._columns(self.address_mapping.map_array(
            list(physical_addresses)))
        return self._drain(columns, batch_size)

    def _columns(self, decoded):
        """The drain's per-burst int lists -- channel-wide rank, bank
        group, channel-wide bank and row -- from the arrays of
        :meth:`~repro.dram.address_mapping.SkylakeAddressMapping.map_array`
        (the channel and column fields pick no state of this channel)."""
        _, dimm, rank, bank_group, bank, row, _ = decoded
        if dimm.size and (dimm.max() >= self.num_dimms
                          or rank.max() >= self.ranks_per_dimm):
            raise IndexError("address maps past the channel's %d DIMM(s) "
                             "x %d rank(s)"
                             % (self.num_dimms, self.ranks_per_dimm))
        geometry = self.address_mapping.geometry
        rank_index = dimm * self.ranks_per_dimm + rank
        flat_bank = (rank_index * geometry.bank_groups + bank_group) \
            * geometry.banks_per_group + bank
        return (rank_index.tolist(), bank_group.tolist(), flat_bank.tolist(),
                row.tolist())

    # ------------------------------------------------------------------ #
    # The drain                                                          #
    # ------------------------------------------------------------------ #
    def _drain(self, columns, cap):
        """Run every burst of ``columns`` (see :meth:`_columns`) to
        completion and return the cumulative :class:`ControllerStats`.

        The bursts arrive, in order, whenever fewer than ``cap`` (``None``:
        no limit) are outstanding.  Arrived bursts are admitted first come
        first served while the read queue has room.  Each pass then issues the
        FR-FCFS pick at the earliest cycle any queued command is ready:
        the first ready row hit in arrival order, else the oldest ready
        request; the next command is RD on a row hit, ACT on a closed bank
        and PRE on a row conflict.  Raises ``RuntimeError`` instead of
        issuing a command more than ``_MAX_DRAIN_CYCLES`` after the start,
        or one whose fresh legal cycle is not the cycle it was picked for.
        """
        rank_of, group_of, bank_of, row_of = columns
        total = len(row_of)
        if cap is None:
            cap = total
        (tRP, tRCD, tCL, tBL, tCCD_S, tCCD_L, tRRD_S, tRRD_L, tFAW, tRAS,
         tRC, tRTP) = self.timing.kernel_params()
        depth = self.queue_depth
        state = self.state
        open_row = state.open_row
        next_act = state.next_act
        next_read = state.next_read
        next_pre = state.next_pre
        faw_ring = state.faw_ring
        faw_slot = state.faw_slot
        last_act = state.last_act
        last_act_group = state.last_act_group
        last_col = state.last_col
        last_col_group = state.last_col_group
        bus_free = state.bus_free
        cycle = self.cycle
        data_bus = self._data_bus
        last_data_rank = self._last_data_rank
        last_cycle = cycle + _MAX_DRAIN_CYCLES
        arrival = [cycle] * total
        self.completion_cycles = done = [-1] * total
        # The readiness cache: the bank+rank part of each queued burst's
        # next command and whether it is a row-hit RD, plus each rank's
        # earliest such cycle over its row hits and over its other bursts.
        ready = [0] * total
        is_hit = [False] * total
        recorded = [False] * total
        ranks = range(self.num_ranks)
        members = [[] for _ in ranks]
        hit_min = [NEVER] * len(ranks)
        other_min = [NEVER] * len(ranks)
        stale = set()
        latencies = self.stats.latencies
        hits = misses = conflicts = commands = latency_sum = 0
        arrived = 0
        admitted = completed = queued = 0
        refill = True
        failure = None
        while True:
            if refill:
                while arrived < total and arrived - completed < cap:
                    arrival[arrived] = cycle
                    arrived += 1
                while admitted < arrived and queued < depth:
                    rank = rank_of[admitted]
                    members[rank].append(admitted)
                    stale.add(rank)
                    admitted += 1
                    queued += 1
                if not queued:
                    break
                refill = False
            # Refresh the cache of every rank a command went to or a
            # request joined: a command changes the state of one rank.
            for rank in stale:
                faw = faw_ring[4 * rank + faw_slot[rank]] + tFAW
                act_group = last_act_group[rank]
                act_same = last_act[rank] + tRRD_L
                act_other = last_act[rank] + tRRD_S
                if faw > act_same:
                    act_same = faw
                if faw > act_other:
                    act_other = faw
                bus = bus_free[rank] - tCL
                col_group = last_col_group[rank]
                col_same = last_col[rank] + tCCD_L
                col_other = last_col[rank] + tCCD_S
                if bus > col_same:
                    col_same = bus
                if bus > col_other:
                    col_other = bus
                first_hit = first_other = NEVER
                for index in members[rank]:
                    bank = bank_of[index]
                    row = open_row[bank]
                    if row == row_of[index]:
                        value = next_read[bank]
                        floor = col_same if group_of[index] == col_group \
                            else col_other
                        if floor > value:
                            value = floor
                        ready[index] = value
                        is_hit[index] = True
                        if value < first_hit:
                            first_hit = value
                        continue
                    if row < 0:
                        value = next_act[bank]
                        floor = act_same if group_of[index] == act_group \
                            else act_other
                        if floor > value:
                            value = floor
                    else:
                        value = next_pre[bank]
                    ready[index] = value
                    is_hit[index] = False
                    if value < first_other:
                        first_other = value
                hit_min[rank] = first_hit
                other_min[rank] = first_other
            stale.clear()
            # The scheduler pass.  Every command waits for the C/A slot,
            # ``cycle``; a RD also waits for the channel's data bus, plus
            # the switch penalty after another rank's burst.
            same_rank = data_bus - tCL
            other_rank = same_rank + _RANK_SWITCH_PENALTY \
                if last_data_rank >= 0 else same_rank
            if cycle > same_rank:
                same_rank = cycle
            if cycle > other_rank:
                other_rank = cycle
            if last_data_rank >= 0:
                own = hit_min[last_data_rank]
                hit_min[last_data_rank] = NEVER
                earliest_hit = min(hit_min)
                hit_min[last_data_rank] = own
                if other_rank > earliest_hit:
                    earliest_hit = other_rank
                if same_rank > own:
                    own = same_rank
                if own < earliest_hit:
                    earliest_hit = own
            else:
                earliest_hit = min(hit_min)
                if other_rank > earliest_hit:
                    earliest_hit = other_rank
            earliest = min(other_min)
            if cycle > earliest:
                earliest = cycle
            # The pick: the first row hit in arrival order ready at the
            # earliest cycle, else the first other request ready then.
            # Each rank's members are in arrival order.
            index = NEVER
            if earliest_hit <= earliest:
                earliest = earliest_hit
                for rank in ranks:
                    if hit_min[rank] > earliest or (
                            same_rank if rank == last_data_rank
                            else other_rank) > earliest:
                        continue
                    for member in members[rank]:
                        if member > index:
                            break
                        if is_hit[member] and ready[member] <= earliest:
                            index = member
                            break
            else:
                for rank in ranks:
                    if other_min[rank] > earliest:
                        continue
                    for member in members[rank]:
                        if member > index:
                            break
                        if not is_hit[member] and ready[member] <= earliest:
                            index = member
                            break
            if earliest > last_cycle:
                failure = "controller did not drain within %d cycles" \
                    % _MAX_DRAIN_CYCLES
                break
            at = earliest
            rank = rank_of[index]
            group = group_of[index]
            bank = bank_of[index]
            row = row_of[index]
            # The fresh legality check, from the flat state alone.
            open_now = open_row[bank]
            if open_now == row:
                command = "RD"
                legal = next_read[bank]
                value = last_col[rank] + (
                    tCCD_L if group == last_col_group[rank] else tCCD_S)
                if value > legal:
                    legal = value
                value = bus_free[rank] - tCL
                if value > legal:
                    legal = value
                value = data_bus - tCL
                if last_data_rank >= 0 and last_data_rank != rank:
                    value += _RANK_SWITCH_PENALTY
                if value > legal:
                    legal = value
            elif open_now < 0:
                command = "ACT"
                legal = next_act[bank]
                value = last_act[rank] + (
                    tRRD_L if group == last_act_group[rank] else tRRD_S)
                if value > legal:
                    legal = value
                value = faw_ring[4 * rank + faw_slot[rank]] + tFAW
                if value > legal:
                    legal = value
            else:
                command = "PRE"
                legal = next_pre[bank]
            if cycle > legal:
                legal = cycle
            # With an exact cache the pick is legal at exactly its cycle:
            # a later legal cycle means the cache ran early, an earlier
            # one that it ran late.
            if legal != at:
                failure = "%s picked for cycle %d on channel %d rank %d " \
                    "is legal at cycle %d" \
                    % (command, at, self.channel_index, rank, legal)
                break
            # Issue.  The row outcome counts once, at a request's first
            # command.
            if command == "RD":
                if not recorded[index]:
                    hits += 1
                value = at + tCCD_L
                if value > next_read[bank]:
                    next_read[bank] = value
                value = at + tRTP
                if value > next_pre[bank]:
                    next_pre[bank] = value
                last_col[rank] = at
                last_col_group[rank] = group
                finish = at + tCL + tBL
                if finish > bus_free[rank]:
                    bus_free[rank] = finish
                if finish > data_bus:
                    data_bus = finish
                last_data_rank = rank
                done[index] = finish
                latency = finish - arrival[index]
                latency_sum += latency
                latencies.append(latency)
                completed += 1
                queued -= 1
                members[rank].remove(index)
                refill = True
            elif command == "ACT":
                if not recorded[index]:
                    misses += 1
                    recorded[index] = True
                open_row[bank] = row
                value = at + tRCD
                if value > next_read[bank]:
                    next_read[bank] = value
                value = at + tRAS
                if value > next_pre[bank]:
                    next_pre[bank] = value
                value = at + tRC
                if value > next_act[bank]:
                    next_act[bank] = value
                slot = faw_slot[rank]
                faw_ring[4 * rank + slot] = at
                faw_slot[rank] = (slot + 1) & 3
                last_act[rank] = at
                last_act_group[rank] = group
            else:
                if not recorded[index]:
                    conflicts += 1
                    recorded[index] = True
                open_row[bank] = -1
                value = at + tRP
                if value > next_act[bank]:
                    next_act[bank] = value
            commands += 1
            stale.add(rank)
            cycle = at + 1
        self.cycle = cycle
        self._data_bus = data_bus
        self._last_data_rank = last_data_rank
        stats = self.stats
        stats.requests_completed += completed
        stats.total_latency_cycles += latency_sum
        stats.row_hits += hits
        stats.row_misses += misses
        stats.row_conflicts += conflicts
        stats.commands_issued += commands
        if failure is not None:
            raise RuntimeError(failure)
        stats.cycles_elapsed = cycle
        return stats


def check_outstanding_limit(name, limit):
    """Reject an outstanding-request cap below one (``None`` = unbounded):
    a throttled run admits nothing under such a cap and never drains."""
    if limit is not None and limit < 1:
        raise ValueError("%s must be at least 1 (or None for no limit), "
                         "got %r" % (name, limit))
