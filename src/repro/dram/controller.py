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
from one drain to the next.  The scheduler picks from a readiness cache
kept per bank: all queued bursts of one bank wait for the same RD if they
hit its open row and for the same ACT or PRE if not, so each bank holds
those two cycles with its counts of queued bursts and row hits, each rank
the earliest of each kind over its banks, and the channel the earliest
over its ranks.  A command refreshes only what it moved: its rank's
banks of the kind whose floors it changed, plus its own bank.  An
admitted burst changes no DDR4 state, so it only lowers its bank's,
rank's and channel's entries.  Every command the scheduler issues is then checked
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
    one-cycle-at-a-time loop would have issued.  The earliest cycle comes
    from per-bank readiness (see the module docstring) with no scan over
    the queue; the pick walks only the ranks with a command ready then,
    each in arrival order.

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
        geometry = self.address_mapping.geometry
        bank_group = [bank // geometry.banks_per_group % geometry.bank_groups
                      for bank in range(len(open_row))]
        # The readiness cache.  All queued bursts of one bank wait for the
        # same RD if they hit its open row, and for the same ACT or PRE if
        # not, so the cache is per bank: those two cycles (each valid while
        # the bank has such a burst), the bank's queued bursts and row hits;
        # then each rank's earliest RD and earliest other command, and the
        # channel's (``first_hit``, ``first_other``), re-scanned over the
        # ranks only when the rank that held one moves it later.
        hit_ready = [NEVER] * len(open_row)
        other_ready = [NEVER] * len(open_row)
        hits_in = [0] * len(open_row)
        is_hit = [False] * total
        recorded = [False] * total
        ranks = range(self.num_ranks)
        members = [[] for _ in ranks]
        queued_in = [{} for _ in ranks]
        hit_min = [NEVER] * len(ranks)
        other_min = [NEVER] * len(ranks)
        first_hit = first_other = NEVER
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
                # Admission changes no DDR4 state, so the cache stays
                # exact: only the burst's bank's value for its command and
                # its rank's and the channel's minima can move, and only
                # down.
                while admitted < arrived and queued < depth:
                    rank = rank_of[admitted]
                    bank = bank_of[admitted]
                    members[rank].append(admitted)
                    in_bank = queued_in[rank]
                    in_bank[bank] = in_bank.get(bank, 0) + 1
                    row = open_row[bank]
                    group = group_of[admitted]
                    if row == row_of[admitted]:
                        is_hit[admitted] = True
                        hits_in[bank] += 1
                        value = next_read[bank]
                        floor = last_col[rank] + (
                            tCCD_L if group == last_col_group[rank]
                            else tCCD_S)
                        if floor > value:
                            value = floor
                        floor = bus_free[rank] - tCL
                        if floor > value:
                            value = floor
                        hit_ready[bank] = value
                        if value < hit_min[rank]:
                            hit_min[rank] = value
                            if value < first_hit:
                                first_hit = value
                    else:
                        if row < 0:
                            value = next_act[bank]
                            floor = last_act[rank] + (
                                tRRD_L if group == last_act_group[rank]
                                else tRRD_S)
                            if floor > value:
                                value = floor
                            floor = faw_ring[4 * rank + faw_slot[rank]] \
                                + tFAW
                            if floor > value:
                                value = floor
                        else:
                            value = next_pre[bank]
                        other_ready[bank] = value
                        if value < other_min[rank]:
                            other_min[rank] = value
                            if value < first_other:
                                first_other = value
                    admitted += 1
                    queued += 1
                if not queued:
                    break
                refill = False
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
            # The earliest RD: the earliest row hit if no rank's data-bus
            # floor delays it, else the last data rank's own (its floor
            # ``same_rank``) or any other rank's at ``other_rank``.
            earliest_hit = first_hit
            if earliest_hit < other_rank:
                own = hit_min[last_data_rank] if last_data_rank >= 0 \
                    else NEVER
                if own >= other_rank:
                    earliest_hit = other_rank
                elif own > same_rank:
                    earliest_hit = own
                else:
                    earliest_hit = same_rank
            # The earliest other command; a RD ready no later wins.
            earliest = first_other
            if cycle > earliest:
                earliest = cycle
            # The pick: the first row hit in arrival order ready at the
            # earliest cycle, else the first other request ready then.
            # Each rank's members are in arrival order.
            index = NEVER
            if earliest_hit <= earliest:
                earliest = earliest_hit
                # Before ``other_rank`` only the last data rank can read.
                for rank in ((last_data_rank,) if earliest < other_rank
                             else ranks):
                    if hit_min[rank] > earliest:
                        continue
                    for member in members[rank]:
                        if member > index:
                            break
                        if is_hit[member] \
                                and hit_ready[bank_of[member]] <= earliest:
                            index = member
                            break
            else:
                for rank in ranks:
                    if other_min[rank] > earliest:
                        continue
                    for member in members[rank]:
                        if member > index:
                            break
                        if not is_hit[member] \
                                and other_ready[bank_of[member]] <= earliest:
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
            # command.  Then refresh the cache of what the command moved:
            # a RD moves the rank's RD floors and its bank's PRE, an ACT
            # the rank's ACT floors and its bank, a PRE its bank alone.
            in_bank = queued_in[rank]
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
                hits_in[bank] -= 1
                count = in_bank[bank] - 1
                if count:
                    in_bank[bank] = count
                else:
                    del in_bank[bank]
                refill = True
                refresh_hits = True
                refresh_others = count > hits_in[bank]
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
                # The bank's bursts for the opened row turn into hits.
                count = 0
                for member in members[rank]:
                    if bank_of[member] == bank and row_of[member] == row:
                        is_hit[member] = True
                        count += 1
                hits_in[bank] = count
                value = next_read[bank]
                floor = last_col[rank] + (
                    tCCD_L if group == last_col_group[rank] else tCCD_S)
                if floor > value:
                    value = floor
                floor = bus_free[rank] - tCL
                if floor > value:
                    value = floor
                hit_ready[bank] = value
                if value < hit_min[rank]:
                    hit_min[rank] = value
                    if value < first_hit:
                        first_hit = value
                refresh_hits = False
                refresh_others = True
            else:
                if not recorded[index]:
                    conflicts += 1
                    recorded[index] = True
                open_row[bank] = -1
                value = at + tRP
                if value > next_act[bank]:
                    next_act[bank] = value
                refresh_hits = hits_in[bank] > 0
                if refresh_hits:
                    for member in members[rank]:
                        if bank_of[member] == bank:
                            is_hit[member] = False
                    hits_in[bank] = 0
                refresh_others = True
            commands += 1
            cycle = at + 1
            if refresh_hits:
                bus = bus_free[rank] - tCL
                col_group = last_col_group[rank]
                col_same = last_col[rank] + tCCD_L
                col_other = last_col[rank] + tCCD_S
                if bus > col_same:
                    col_same = bus
                if bus > col_other:
                    col_other = bus
                first = NEVER
                for bank in in_bank:
                    if hits_in[bank]:
                        value = next_read[bank]
                        floor = col_same if bank_group[bank] == col_group \
                            else col_other
                        if floor > value:
                            value = floor
                        hit_ready[bank] = value
                        if value < first:
                            first = value
                value = hit_min[rank]
                hit_min[rank] = first
                if first < first_hit:
                    first_hit = first
                elif first > value == first_hit:
                    first_hit = min(hit_min)
            if refresh_others:
                faw = faw_ring[4 * rank + faw_slot[rank]] + tFAW
                act_group = last_act_group[rank]
                act_same = last_act[rank] + tRRD_L
                act_other = last_act[rank] + tRRD_S
                if faw > act_same:
                    act_same = faw
                if faw > act_other:
                    act_other = faw
                first = NEVER
                for bank, count in in_bank.items():
                    if hits_in[bank] == count:
                        continue
                    if open_row[bank] < 0:
                        value = next_act[bank]
                        floor = act_same if bank_group[bank] == act_group \
                            else act_other
                        if floor > value:
                            value = floor
                    else:
                        value = next_pre[bank]
                    other_ready[bank] = value
                    if value < first:
                        first = value
                value = other_min[rank]
                other_min[rank] = first
                if first < first_other:
                    first_other = first
                elif first > value == first_other:
                    first_other = min(other_min)
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
