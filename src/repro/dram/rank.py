"""DRAM rank: a collection of banks sharing rank-level timing constraints.

The rank enforces the constraints that span banks:

* tRRD_S / tRRD_L -- minimum spacing between ACTs to different banks,
* tFAW -- at most four ACTs within any tFAW window,
* tCCD_S / tCCD_L -- column command spacing,
* a single shared data bus (one burst at a time per rank towards the channel).
"""

from collections import deque

from repro.dram.bank import Bank
from repro.dram.commands import CommandType
from repro.dram.timing import DDR4Timing


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
    # Kernel state sync (see repro.core.kernels)                         #
    # ------------------------------------------------------------------ #
    def kernel_scalars(self):
        """Rank-level scalars in the flat ``RS_*`` layout of
        :mod:`repro.core.kernels` (sans the trailing ``current_cycle``
        slot, which the rank-NMP wrapper appends).

        Layout: ``[ring0..ring3, act_count, last_act_cycle,
        last_act_bank_group, last_col_cycle, last_col_bank_group,
        next_data_bus_free]`` with ``-1`` encoding ``None``.  The ring
        buffer holds the recent ACT cycles at slot ``act_index % 4``, so
        ``ring[act_count % 4]`` is ``history[-4]`` once four ACTs
        happened -- exactly the tFAW reference cycle.
        """
        history = self._act_history
        rs = [0, 0, 0, 0,
              len(history),
              -1 if self._last_act_cycle is None else self._last_act_cycle,
              -1 if self._last_act_bank_group is None
              else self._last_act_bank_group,
              -1 if self._last_col_cycle is None else self._last_col_cycle,
              -1 if self._last_col_bank_group is None
              else self._last_col_bank_group,
              self.next_data_bus_free]
        for i, cycle in enumerate(history):
            rs[i] = cycle
        return rs

    def set_kernel_scalars(self, rs):
        """Write back scalars mutated by a kernel call (inverse of
        :meth:`kernel_scalars`; tolerates the extra trailing slots of the
        full RS vector)."""
        count = int(rs[4])
        keep = 4 if count > 4 else count
        history = self._act_history
        history.clear()
        for i in range(keep):
            history.append(int(rs[(count - keep + i) % 4]))
        value = int(rs[5])
        self._last_act_cycle = None if value < 0 else value
        value = int(rs[6])
        self._last_act_bank_group = None if value < 0 else value
        value = int(rs[7])
        self._last_col_cycle = None if value < 0 else value
        value = int(rs[8])
        self._last_col_bank_group = None if value < 0 else value
        self.next_data_bus_free = int(rs[9])

    # ------------------------------------------------------------------ #
    def stats(self):
        """Aggregate bank statistics for this rank."""
        totals = {"row_hits": 0, "row_misses": 0, "row_conflicts": 0,
                  "activations": 0, "reads": 0, "precharges": 0}
        for bank in self.banks:
            for key, value in bank.stats().items():
                totals[key] += value
        return totals
