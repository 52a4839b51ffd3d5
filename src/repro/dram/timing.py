"""DDR4 timing parameters and the DDR4 state they constrain.

All values are expressed in DRAM clock cycles of the memory clock (for
DDR4-2400 the memory clock is 1200 MHz; data is transferred on both edges so
the data rate is 2400 MT/s).  The default values reproduce Table I of the
RecNMP paper, which in turn follows a Micron 8 Gb DDR4 datasheet.
"""

from dataclasses import dataclass

#: The cycle of a command that never issued: so far back that the tRRD,
#: tCCD and tFAW constraints it yields never bind.
LONG_AGO = -(1 << 62)
#: Later than any reachable cycle: the empty minimum of a scan over
#: readiness cycles.
NEVER = 1 << 62


@dataclass(frozen=True)
class DDR4Timing:
    """Timing constraints of a DDR4 device, in memory-clock cycles.

    Attributes
    ----------
    clock_mhz:
        Memory clock frequency in MHz (data rate is ``2 * clock_mhz`` MT/s).
    tRC:
        ACT-to-ACT delay to the same bank (row cycle time).
    tRCD:
        ACT-to-RD/WR delay (row to column delay).
    tCL:
        RD command to first data (CAS latency).
    tRP:
        PRE-to-ACT delay (row precharge time).
    tBL:
        Data burst length in memory-clock cycles (burst of 8 transfers = 4
        cycles at double data rate).
    tCCD_S / tCCD_L:
        Column-to-column delay, short (different bank group) and long (same
        bank group).
    tRRD_S / tRRD_L:
        ACT-to-ACT delay across banks, short / long (bank-group dependent).
    tFAW:
        Four-activate window: at most four ACTs to one rank per tFAW.
    tRAS:
        ACT-to-PRE minimum (derived as tRC - tRP when not given).
    tRTP:
        Read-to-precharge delay.
    tWR:
        Write recovery time.
    tCWL:
        Write CAS latency.
    tREFI / tRFC:
        Refresh interval and refresh cycle time (modelled but disabled by
        default in short simulations).
    """

    clock_mhz: float = 1200.0
    tRC: int = 55
    tRCD: int = 16
    tCL: int = 16
    tRP: int = 16
    tBL: int = 4
    tCCD_S: int = 4
    tCCD_L: int = 6
    tRRD_S: int = 4
    tRRD_L: int = 6
    tFAW: int = 26
    tRAS: int = 39
    tRTP: int = 9
    tWR: int = 18
    tCWL: int = 12
    tREFI: int = 9360
    tRFC: int = 420

    def __post_init__(self):
        for name in ("clock_mhz", "tRC", "tRCD", "tCL", "tRP", "tBL",
                     "tCCD_S", "tCCD_L", "tRRD_S", "tRRD_L", "tFAW",
                     "tRAS", "tRTP", "tWR", "tCWL", "tREFI", "tRFC"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError("%s must be positive, got %r" % (name, value))
        if self.tRAS + self.tRP > self.tRC + 1:
            raise ValueError(
                "inconsistent timing: tRAS + tRP must not exceed tRC "
                "(tRAS=%d, tRP=%d, tRC=%d)" % (self.tRAS, self.tRP, self.tRC))

    @property
    def data_rate_mts(self):
        """Data rate in mega-transfers per second."""
        return 2.0 * self.clock_mhz

    @property
    def cycle_time_ns(self):
        """Duration of one memory-clock cycle in nanoseconds."""
        return 1_000.0 / self.clock_mhz

    def kernel_params(self):
        """Flat parameter tuple in the order the DDR4 loops unpack
        (:mod:`repro.core.rank_nmp`, :mod:`repro.core.kernels`,
        :mod:`repro.dram.controller`): ``(tRP, tRCD, tCL, tBL, tCCD_S,
        tCCD_L, tRRD_S, tRRD_L, tFAW, tRAS, tRC, tRTP)``."""
        return (self.tRP, self.tRCD, self.tCL, self.tBL, self.tCCD_S,
                self.tCCD_L, self.tRRD_S, self.tRRD_L, self.tFAW,
                self.tRAS, self.tRC, self.tRTP)


#: The DDR4-2400 configuration used throughout the paper (Table I).
DDR4_2400 = DDR4Timing()



class DDR4State:
    """The DDR4 bank and rank state of ``num_ranks`` ranks as flat
    columns, in the one layout the host FR-FCFS controller and the
    rank-NMPs share; the loops that drive it update it in place.

    Per bank, indexed ``rank * banks_per_rank + bank_group *
    banks_per_group + bank``: ``open_row`` (-1 when closed) and the
    earliest ``next_act`` / ``next_read`` / ``next_pre`` cycles.  Per
    rank: its last four ACT cycles (``faw_ring[4 * rank:4 * rank + 4]``)
    with the slot of the oldest (``faw_slot``), the cycle and bank group
    of its last ACT (``last_act`` / ``last_act_group``) and column
    command (``last_col`` / ``last_col_group``), :data:`LONG_AGO` and -1
    before the first, and the cycle its data bus frees (``bus_free``).
    Each column is a plain list, or whatever a subclass's
    :meth:`_column` makes of it (the rank-NMPs' int64 arrays for the
    flat kernels of :mod:`repro.core.kernels`).
    """

    #: Per-bank and per-rank columns with the value each starts and
    #: resets to (besides ``faw_ring``, four entries per rank, all
    #: :data:`LONG_AGO`).  A subclass extends them with its own columns.
    BANK_FIELDS = (("open_row", -1), ("next_act", 0), ("next_read", 0),
                   ("next_pre", 0))
    RANK_FIELDS = (("faw_slot", 0), ("last_act", LONG_AGO),
                   ("last_act_group", -1), ("last_col", LONG_AGO),
                   ("last_col_group", -1), ("bus_free", 0))

    def __init__(self, num_ranks, banks_per_rank):
        self.num_ranks = num_ranks
        self.banks_per_rank = banks_per_rank
        column = self._column
        for name, fill in self.BANK_FIELDS:
            setattr(self, name,
                    column([fill] * (num_ranks * banks_per_rank)))
        for name, fill in self.RANK_FIELDS:
            setattr(self, name, column([fill] * num_ranks))
        self.faw_ring = column([LONG_AGO] * (4 * num_ranks))

    def _column(self, values):
        """The column holding the list ``values``."""
        return values

    def reset(self, rank):
        """Refill rank ``rank``'s columns with their start values."""
        low = rank * self.banks_per_rank
        for name, fill in self.BANK_FIELDS:
            getattr(self, name)[low:low + self.banks_per_rank] = \
                [fill] * self.banks_per_rank
        for name, fill in self.RANK_FIELDS:
            getattr(self, name)[rank] = fill
        self.faw_ring[4 * rank:4 * rank + 4] = [LONG_AGO] * 4
