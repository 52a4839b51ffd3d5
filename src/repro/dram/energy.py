"""DRAM access energy model.

The constants reproduce the latency/energy parameters in Table I of the
paper: an activate costs 2.1 nJ, reads/writes cost 14 pJ/bit at the device
and 22 pJ/bit of off-chip I/O when the data crosses the DIMM interface to
the host.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class DramEnergyParameters:
    """Per-operation DRAM energy constants (Table I)."""

    activate_nj: float = 2.1
    read_write_pj_per_bit: float = 14.0
    offchip_io_pj_per_bit: float = 22.0
    # Static/background power per rank in milliwatts, used to attribute
    # leakage savings to shorter execution time.
    background_mw_per_rank: float = 150.0

    def __post_init__(self):
        for name in ("activate_nj", "read_write_pj_per_bit",
                     "offchip_io_pj_per_bit", "background_mw_per_rank"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)


@dataclass
class DramEnergyBreakdown:
    """Energy breakdown of one simulated interval, in nanojoules."""

    activate_nj: float = 0.0
    read_write_nj: float = 0.0
    offchip_io_nj: float = 0.0
    background_nj: float = 0.0

    @property
    def total_nj(self):
        return (self.activate_nj + self.read_write_nj + self.offchip_io_nj
                + self.background_nj)

    def as_dict(self):
        return {
            "activate_nj": self.activate_nj,
            "read_write_nj": self.read_write_nj,
            "offchip_io_nj": self.offchip_io_nj,
            "background_nj": self.background_nj,
            "total_nj": self.total_nj,
        }


class DramEnergyModel:
    """Compute DRAM energy from access counts and elapsed time."""

    def __init__(self, parameters=None):
        self.parameters = parameters or DramEnergyParameters()

    def energy(self, activations, bytes_read, bytes_to_host, elapsed_ns,
               active_ranks=1):
        """Return a :class:`DramEnergyBreakdown`.

        Parameters
        ----------
        activations:
            Number of row activations (each costs ``activate_nj``).
        bytes_read:
            Bytes read out of the DRAM devices (device-level read energy).
        bytes_to_host:
            Bytes that additionally cross the off-chip DIMM interface to the
            host.  For the baseline this equals ``bytes_read``; for RecNMP
            only the pooled outputs cross the interface.
        elapsed_ns:
            Wall-clock duration of the interval (for background energy).
        active_ranks:
            Number of powered ranks contributing background energy.
        """
        if min(activations, bytes_read, bytes_to_host, elapsed_ns,
               active_ranks) < 0:
            raise ValueError("energy inputs must be non-negative")
        p = self.parameters
        breakdown = DramEnergyBreakdown()
        breakdown.activate_nj = activations * p.activate_nj
        breakdown.read_write_nj = (bytes_read * 8 *
                                   p.read_write_pj_per_bit) / 1_000.0
        breakdown.offchip_io_nj = (bytes_to_host * 8 *
                                   p.offchip_io_pj_per_bit) / 1_000.0
        breakdown.background_nj = (p.background_mw_per_rank * active_ranks *
                                   elapsed_ns) / 1_000_000.0
        return breakdown
