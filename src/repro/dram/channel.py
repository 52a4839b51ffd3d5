"""DRAM channel: DIMMs and ranks sharing one command/address and data bus."""

from repro.dram.commands import CommandType
from repro.dram.rank import Rank
from repro.dram.timing import DDR4Timing


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
