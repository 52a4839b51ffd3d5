"""The DDR4 reference the FR-FCFS controller and the rank-NMPs are
checked against.

:func:`skylake_decode` is the Skylake address mapping one address at a
time, in Python integers, giving a :class:`DramAddress`.  :class:`Bank`
and :class:`Rank` are the per-object DDR4 state machines: a bank's open
row and ACT / RD / PRE ready cycles, and a rank's tRRD, tFAW, tCCD and
data-bus constraints over its banks, each command checked against them;
:class:`CommandType` names their commands.  :class:`Channel` is
the layered per-command model: the shared C/A slot and data bus of one
channel over those ranks, each command checked once against the whole
set.  :class:`PerCycleController` runs FR-FCFS on
top of it one memory cycle at a time.  None of them shares code with
``MemoryController``'s drain or the array decode it is fed by: the drain
holds the same state as flat lists and jumps idle cycles, so the two must
agree on every completion cycle, every ``ControllerStats`` field and the
elapsed cycles of any trace.
"""

import enum
from collections import deque, namedtuple

from repro.dram.address_mapping import MemoryGeometry
from repro.dram.controller import ControllerStats
from repro.dram.timing import DDR4_2400, DDR4Timing

#: A decoded DRAM coordinate, its fields in the order
#: ``SkylakeAddressMapping.map_array`` returns them.
DramAddress = namedtuple(
    "DramAddress", "channel dimm rank bank_group bank row column")


class CommandType(enum.Enum):
    """Low-level DDR commands issued on the C/A bus."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"


def skylake_decode(geometry, physical_address):
    """The :class:`DramAddress` of one byte address: channel, column, bank
    group, bank, rank, DIMM and row from the low bits of its 64 B block
    up, then the low row bits XOR-ed into the bank group and bank."""
    g = geometry
    rest = physical_address // g.column_size_bytes
    rest, channel = divmod(rest, g.num_channels)
    rest, column = divmod(rest, g.columns_per_row)
    rest, bank_group = divmod(rest, g.bank_groups)
    rest, bank = divmod(rest, g.banks_per_group)
    rest, rank = divmod(rest, g.ranks_per_dimm)
    rest, dimm = divmod(rest, g.dimms_per_channel)
    row = rest % g.rows_per_bank
    bank_group = (bank_group ^ (row & (g.bank_groups - 1))) % g.bank_groups
    bank = (bank ^ ((row >> 2) & (g.banks_per_group - 1))) \
        % g.banks_per_group
    return DramAddress(channel=channel, dimm=dimm, rank=rank,
                       bank_group=bank_group, bank=bank, row=row,
                       column=column)


class Bank:
    """One DRAM bank: an open-row register plus per-command ready times."""

    def __init__(self, timing, bank_group, bank_index):
        if not isinstance(timing, DDR4Timing):
            raise TypeError("timing must be a DDR4Timing instance")
        self.timing = timing
        self.bank_group = bank_group
        self.bank_index = bank_index
        self.open_row = None
        # Earliest cycle at which each command type can be issued to this bank.
        self.next_act = 0
        self.next_read = 0
        self.next_pre = 0
        # Statistics.
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.activations = 0
        self.reads = 0
        self.precharges = 0

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #
    def is_row_hit(self, row):
        """True if ``row`` is currently open in the row buffer."""
        return self.open_row == row

    def is_row_closed(self):
        """True if no row is open (bank precharged)."""
        return self.open_row is None

    def required_commands(self, row):
        """Return the DDR command sequence needed to read ``row``.

        * row hit -> ``[RD]``
        * closed bank -> ``[ACT, RD]``
        * row conflict -> ``[PRE, ACT, RD]``
        """
        if self.is_row_hit(row):
            return [CommandType.RD]
        if self.is_row_closed():
            return [CommandType.ACT, CommandType.RD]
        return [CommandType.PRE, CommandType.ACT, CommandType.RD]

    def earliest_issue_cycle(self, command_type, current_cycle):
        """Earliest cycle >= ``current_cycle`` the command may issue."""
        if command_type is CommandType.ACT:
            ready = self.next_act
        elif command_type in (CommandType.RD, CommandType.WR):
            ready = self.next_read
        elif command_type is CommandType.PRE:
            ready = self.next_pre
        else:
            raise ValueError("unsupported command %r" % (command_type,))
        return ready if ready > current_cycle else current_cycle

    def can_issue(self, command_type, current_cycle):
        """True if the bank-local timing allows issuing the command now."""
        return self.earliest_issue_cycle(command_type, current_cycle) <= \
            current_cycle

    # ------------------------------------------------------------------ #
    # State updates                                                      #
    # ------------------------------------------------------------------ #
    def issue_activate(self, row, cycle):
        """Issue ACT: open ``row`` and update timing state."""
        if self.next_act > cycle:
            raise RuntimeError(
                "ACT issued at cycle %d before bank ready (ready at %d)"
                % (cycle, self.next_act))
        if self.open_row is not None:
            raise RuntimeError("ACT issued while row %d open" % self.open_row)
        timing = self.timing
        self.open_row = row
        self.activations += 1
        self.next_read = max(self.next_read, cycle + timing.tRCD)
        self.next_pre = max(self.next_pre, cycle + timing.tRAS)
        self.next_act = max(self.next_act, cycle + timing.tRC)

    def issue_read(self, row, cycle):
        """Issue RD to the open row; returns the cycle data finishes."""
        if self.open_row != row:
            raise RuntimeError(
                "RD to row %r but open row is %r" % (row, self.open_row))
        if self.next_read > cycle:
            raise RuntimeError(
                "RD issued at cycle %d before bank ready (ready at %d)"
                % (cycle, self.next_read))
        timing = self.timing
        self.reads += 1
        data_done = cycle + timing.tCL + timing.tBL
        # A subsequent read to the same bank must respect tCCD_L; the rank
        # enforces the cross-bank constraint, here we keep the local one.
        self.next_read = max(self.next_read, cycle + timing.tCCD_L)
        self.next_pre = max(self.next_pre, cycle + timing.tRTP)
        return data_done

    def issue_precharge(self, cycle):
        """Issue PRE: close the open row and update timing state."""
        if self.next_pre > cycle:
            raise RuntimeError(
                "PRE issued at cycle %d before bank ready (ready at %d)"
                % (cycle, self.next_pre))
        timing = self.timing
        self.open_row = None
        self.precharges += 1
        self.next_act = max(self.next_act, cycle + timing.tRP)

    def record_access_outcome(self, row):
        """Update hit/miss/conflict statistics for an access to ``row``."""
        if self.is_row_hit(row):
            self.row_hits += 1
        elif self.is_row_closed():
            self.row_misses += 1
        else:
            self.row_conflicts += 1

    def stats(self):
        """Return the per-bank counters as a dictionary."""
        return {
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "activations": self.activations,
            "reads": self.reads,
            "precharges": self.precharges,
        }


class Rank:
    """One rank of a DIMM: ``num_bank_groups * banks_per_group`` banks."""

    def __init__(self, timing, num_bank_groups=4, banks_per_group=4,
                 rank_index=0):
        if not isinstance(timing, DDR4Timing):
            raise TypeError("timing must be a DDR4Timing instance")
        if num_bank_groups <= 0 or banks_per_group <= 0:
            raise ValueError("bank counts must be positive")
        self.timing = timing
        self.rank_index = rank_index
        self.num_bank_groups = num_bank_groups
        self.banks_per_group = banks_per_group
        self.banks = [
            Bank(timing, bank_group=g, bank_index=b)
            for g in range(num_bank_groups)
            for b in range(banks_per_group)
        ]
        # Rank-level timing state.
        self._act_history = deque()      # cycles of recent ACTs (for tFAW)
        self._last_act_cycle = None
        self._last_act_bank_group = None
        self._last_col_cycle = None
        self._last_col_bank_group = None
        self.next_data_bus_free = 0

    # ------------------------------------------------------------------ #
    def bank(self, bank_group, bank_index):
        """Return the bank object for ``(bank_group, bank_index)``."""
        if not 0 <= bank_group < self.num_bank_groups:
            raise IndexError("bank_group out of range: %d" % bank_group)
        if not 0 <= bank_index < self.banks_per_group:
            raise IndexError("bank_index out of range: %d" % bank_index)
        return self.banks[bank_group * self.banks_per_group + bank_index]

    # ------------------------------------------------------------------ #
    # Rank-level constraints                                             #
    # ------------------------------------------------------------------ #
    def _faw_ready_cycle(self):
        """Earliest cycle a new ACT may issue under the tFAW constraint."""
        if len(self._act_history) < 4:
            return 0
        return self._act_history[-4] + self.timing.tFAW

    def _rrd_ready_cycle(self, bank_group):
        """Earliest cycle a new ACT may issue under tRRD_S/tRRD_L."""
        if self._last_act_cycle is None:
            return 0
        if bank_group == self._last_act_bank_group:
            return self._last_act_cycle + self.timing.tRRD_L
        return self._last_act_cycle + self.timing.tRRD_S

    def _ccd_ready_cycle(self, bank_group):
        """Earliest cycle a new column command may issue under tCCD_S/L."""
        if self._last_col_cycle is None:
            return 0
        if bank_group == self._last_col_bank_group:
            return self._last_col_cycle + self.timing.tCCD_L
        return self._last_col_cycle + self.timing.tCCD_S

    def earliest_issue_cycle(self, command_type, bank_group, bank_index,
                             current_cycle):
        """Earliest legal issue cycle combining bank and rank constraints."""
        bank = self.bank(bank_group, bank_index)
        ready = bank.earliest_issue_cycle(command_type, current_cycle)
        # ``ready`` is already at least ``current_cycle``.
        if command_type is CommandType.ACT:
            faw = self._faw_ready_cycle()
            if faw > ready:
                ready = faw
            rrd = self._rrd_ready_cycle(bank_group)
            if rrd > ready:
                ready = rrd
        elif command_type in (CommandType.RD, CommandType.WR):
            ccd = self._ccd_ready_cycle(bank_group)
            if ccd > ready:
                ready = ccd
            # data bus must be free when the burst starts
            bus = self.next_data_bus_free - self.timing.tCL
            if bus > ready:
                ready = bus
        return ready

    def can_issue(self, command_type, bank_group, bank_index, current_cycle):
        """True if the command may legally issue at ``current_cycle``."""
        return self.earliest_issue_cycle(
            command_type, bank_group, bank_index, current_cycle) <= \
            current_cycle

    # ------------------------------------------------------------------ #
    # Issue                                                              #
    # ------------------------------------------------------------------ #
    def issue(self, command_type, bank_group, bank_index, row, cycle):
        """Issue a command; returns data-completion cycle for RD else None."""
        if self.earliest_issue_cycle(command_type, bank_group, bank_index,
                                     cycle) > cycle:
            raise RuntimeError(
                "%s to rank %d bg %d bank %d not ready at cycle %d"
                % (command_type.value, self.rank_index, bank_group,
                   bank_index, cycle))
        return self._apply(command_type, bank_group, bank_index, row, cycle)

    def _apply(self, command_type, bank_group, bank_index, row, cycle):
        """The state update of :meth:`issue`, for a command its caller has
        already checked against :meth:`earliest_issue_cycle` together with
        its channel's own constraints.  The bank's open-row and timing
        asserts still run."""
        bank = self.bank(bank_group, bank_index)
        if command_type is CommandType.ACT:
            bank.issue_activate(row, cycle)
            self._act_history.append(cycle)
            while len(self._act_history) > 4:
                self._act_history.popleft()
            self._last_act_cycle = cycle
            self._last_act_bank_group = bank_group
            return None
        if command_type is CommandType.RD:
            data_done = bank.issue_read(row, cycle)
            self._last_col_cycle = cycle
            self._last_col_bank_group = bank_group
            self.next_data_bus_free = max(self.next_data_bus_free, data_done)
            return data_done
        if command_type is CommandType.PRE:
            bank.issue_precharge(cycle)
            return None
        raise ValueError("unsupported command %r" % (command_type,))

    # ------------------------------------------------------------------ #
    def stats(self):
        """Aggregate bank statistics for this rank."""
        totals = {"row_hits": 0, "row_misses": 0, "row_conflicts": 0,
                  "activations": 0, "reads": 0, "precharges": 0}
        for bank in self.banks:
            for key, value in bank.stats().items():
                totals[key] += value
        return totals


class Channel:
    """One memory channel with ``num_dimms * ranks_per_dimm`` ranks.

    The channel enforces the shared-bus constraints:

    * one command per cycle on the C/A bus,
    * one data burst at a time on the 64-bit data bus (across all ranks),
      plus a one-cycle rank-to-rank switch penalty.
    """

    def __init__(self, timing, num_dimms=1, ranks_per_dimm=2,
                 num_bank_groups=4, banks_per_group=4, channel_index=0):
        if not isinstance(timing, DDR4Timing):
            raise TypeError("timing must be a DDR4Timing instance")
        if num_dimms <= 0 or ranks_per_dimm <= 0:
            raise ValueError("num_dimms and ranks_per_dimm must be positive")
        self.timing = timing
        self.channel_index = channel_index
        self.num_dimms = num_dimms
        self.ranks_per_dimm = ranks_per_dimm
        self.num_ranks = num_dimms * ranks_per_dimm
        self.ranks = [
            Rank(timing, num_bank_groups=num_bank_groups,
                 banks_per_group=banks_per_group, rank_index=r)
            for r in range(self.num_ranks)
        ]
        self.rank_to_rank_penalty = 1
        # Shared-bus state.
        self.next_ca_free = 0
        self.next_data_free = 0
        self._last_data_rank = None
        self.commands_issued = 0

    # ------------------------------------------------------------------ #
    def rank(self, rank_index):
        """Return the rank object for a channel-wide rank index."""
        if not 0 <= rank_index < self.num_ranks:
            raise IndexError("rank index out of range: %d" % rank_index)
        return self.ranks[rank_index]

    def global_rank_index(self, dimm, rank_in_dimm):
        """Map (dimm, rank-in-dimm) to a channel-wide rank index."""
        if not 0 <= dimm < self.num_dimms:
            raise IndexError("dimm out of range: %d" % dimm)
        if not 0 <= rank_in_dimm < self.ranks_per_dimm:
            raise IndexError("rank out of range: %d" % rank_in_dimm)
        return dimm * self.ranks_per_dimm + rank_in_dimm

    # ------------------------------------------------------------------ #
    def ca_bus_free(self, cycle):
        """True if the command/address bus is free at ``cycle``."""
        return cycle >= self.next_ca_free

    def earliest_issue_cycle(self, command_type, rank_index, bank_group,
                             bank_index, current_cycle):
        """Earliest legal issue cycle including the shared C/A and data bus."""
        rank = self.rank(rank_index)
        ready = rank.earliest_issue_cycle(
            command_type, bank_group, bank_index, current_cycle)
        # ``ready`` is already at least ``current_cycle``.
        if self.next_ca_free > ready:
            ready = self.next_ca_free
        if command_type in (CommandType.RD, CommandType.WR):
            # The data burst (starting tCL after the column command) must not
            # overlap another rank's burst on the shared data bus.
            burst_start_floor = self.next_data_free
            if (self._last_data_rank is not None
                    and self._last_data_rank != rank_index):
                burst_start_floor += self.rank_to_rank_penalty
            bus = burst_start_floor - self.timing.tCL
            if bus > ready:
                ready = bus
        return ready

    def can_issue(self, command_type, rank_index, bank_group, bank_index,
                  current_cycle):
        """True if the command may issue at ``current_cycle``."""
        return self.earliest_issue_cycle(
            command_type, rank_index, bank_group, bank_index,
            current_cycle) <= current_cycle

    def issue(self, command_type, rank_index, bank_group, bank_index, row,
              cycle):
        """Issue a command on this channel.

        The command is checked once, against the full layered constraint
        set of :meth:`earliest_issue_cycle`, before any state changes.
        Returns the data-completion cycle for RD commands, else ``None``.
        """
        if self.earliest_issue_cycle(command_type, rank_index, bank_group,
                                     bank_index, cycle) > cycle:
            raise RuntimeError(
                "%s not ready on channel %d rank %d at cycle %d"
                % (command_type.value, self.channel_index, rank_index, cycle))
        data_done = self.ranks[rank_index]._apply(
            command_type, bank_group, bank_index, row, cycle)
        self.next_ca_free = cycle + 1
        self.commands_issued += 1
        if data_done is not None:
            self.next_data_free = max(self.next_data_free, data_done)
            self._last_data_rank = rank_index
        return data_done

    # ------------------------------------------------------------------ #
    def stats(self):
        """Aggregate statistics across all ranks of the channel."""
        totals = {"row_hits": 0, "row_misses": 0, "row_conflicts": 0,
                  "activations": 0, "reads": 0, "precharges": 0}
        for rank in self.ranks:
            for key, value in rank.stats().items():
                totals[key] += value
        totals["commands_issued"] = self.commands_issued
        return totals


class _Request:
    """A queued read: its decoded target, arrival and completion."""

    def __init__(self, address, channel):
        self.address = address
        self.rank_index = channel.global_rank_index(address.dimm,
                                                    address.rank)
        self.bank = channel.rank(self.rank_index).bank(address.bank_group,
                                                       address.bank)
        self.arrival_cycle = 0
        self.completion_cycle = -1
        self.outcome_recorded = False

    def next_command(self):
        return self.bank.required_commands(self.address.row)[0]


class PerCycleController:
    """FR-FCFS one memory cycle per :meth:`tick`, from the layered checks.

    Every cycle it admits waiting requests first come first served while
    the read queue has room; then, if the C/A bus is free, it issues the
    next command of the first queued request ``Channel.can_issue`` allows
    this cycle, preferring the first such row hit.  Its state persists
    from one :meth:`process_trace` to the next, as the controller's does.
    """

    def __init__(self, num_dimms=1, ranks_per_dimm=2, geometry=None,
                 queue_depth=32, timing=DDR4_2400):
        self.channel = Channel(timing, num_dimms=num_dimms,
                               ranks_per_dimm=ranks_per_dimm)
        self.geometry = geometry or MemoryGeometry()
        self.queue_depth = queue_depth
        self.cycle = 0
        self.stats = ControllerStats()
        self.completion_cycles = []
        self.rank_switches = 0
        self._queue = []
        self._waiting = deque()

    def process_trace(self, physical_addresses, batch_size=None):
        """Read every address, in order, with at most ``batch_size``
        (``None``: all) outstanding; ``completion_cycles`` then lists
        each read's completion cycle in that order."""
        requests = [_Request(skylake_decode(self.geometry, int(address)),
                             self.channel)
                    for address in physical_addresses]
        limit = len(requests) if batch_size is None else batch_size
        index = 0
        while index < len(requests) or self._queue or self._waiting:
            while (index < len(requests)
                   and len(self._queue) + len(self._waiting) < limit):
                request = requests[index]
                request.arrival_cycle = self.cycle
                self._waiting.append(request)
                index += 1
            self.tick()
        self.stats.cycles_elapsed = self.cycle
        self.completion_cycles = [request.completion_cycle
                                  for request in requests]
        return self.stats

    def tick(self):
        while self._waiting and len(self._queue) < self.queue_depth:
            self._queue.append(self._waiting.popleft())
        if self.channel.ca_bus_free(self.cycle):
            request = self._select()
            if request is not None:
                self._issue(request)
        self.cycle += 1

    def _select(self):
        best = None
        for request in self._queue:
            address = request.address
            if not self.channel.can_issue(
                    request.next_command(), request.rank_index,
                    address.bank_group, address.bank, self.cycle):
                continue
            if request.bank.is_row_hit(address.row):
                return request
            if best is None:
                best = request
        return best

    def _issue(self, request):
        address = request.address
        bank = request.bank
        stats = self.stats
        if not request.outcome_recorded:
            if bank.is_row_hit(address.row):
                stats.row_hits += 1
            elif bank.is_row_closed():
                stats.row_misses += 1
            else:
                stats.row_conflicts += 1
            bank.record_access_outcome(address.row)
            request.outcome_recorded = True
        command = request.next_command()
        last_data_rank = self.channel._last_data_rank
        data_done = self.channel.issue(command, request.rank_index,
                                       address.bank_group, address.bank,
                                       address.row, self.cycle)
        stats.commands_issued += 1
        if command is CommandType.RD:
            if last_data_rank not in (None, request.rank_index):
                self.rank_switches += 1
            request.completion_cycle = data_done
            latency = data_done - request.arrival_cycle
            stats.requests_completed += 1
            stats.total_latency_cycles += latency
            stats.latencies.append(latency)
            self._queue.remove(request)
