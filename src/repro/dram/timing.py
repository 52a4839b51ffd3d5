"""DDR4 timing parameters.

All values are expressed in DRAM clock cycles of the memory clock (for
DDR4-2400 the memory clock is 1200 MHz; data is transferred on both edges so
the data rate is 2400 MT/s).  The default values reproduce Table I of the
RecNMP paper, which in turn follows a Micron 8 Gb DDR4 datasheet.
"""

from dataclasses import dataclass


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

