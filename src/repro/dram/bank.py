"""DRAM bank state machine.

Each bank tracks its open row and the earliest cycle at which the next ACT,
RD/WR or PRE command may legally be issued, based on the DDR4 timing
constraints of :class:`~repro.dram.timing.DDR4Timing`.
"""

from repro.dram.commands import CommandType
from repro.dram.timing import DDR4Timing


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

    # ------------------------------------------------------------------ #
    # Kernel state sync (see repro.core.kernels)                         #
    # ------------------------------------------------------------------ #
    def kernel_state(self):
        """Timing-relevant state as a flat int tuple (-1 = row closed).

        Order matches the per-bank arrays of :mod:`repro.core.kernels`:
        ``(open_row, next_act, next_read, next_pre, activations, reads,
        precharges)``.  Also used by parity tests to compare full bank
        state between the legacy path and a kernel run.
        """
        return (-1 if self.open_row is None else self.open_row,
                self.next_act, self.next_read, self.next_pre,
                self.activations, self.reads, self.precharges)

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
