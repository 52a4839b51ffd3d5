"""RecNMP memory energy model (Section V-C, "Memory energy savings").

RecNMP saves memory energy in three ways relative to the CPU baseline:

1. only the pooled outputs cross the off-chip DIMM interface instead of
   every embedding vector (22 pJ/bit of off-chip I/O avoided),
2. RankCache hits avoid DRAM array reads and activations entirely,
3. the shorter execution time reduces background/leakage energy.

The per-operation constants come from Table I (plus the RankCache access and
FP32 arithmetic energies used for the NMP datapath).
"""

from dataclasses import dataclass

from repro.dram.energy import DramEnergyParameters


@dataclass(frozen=True)
class NMPEnergyParameters:
    """Per-operation energy constants for the RecNMP datapath (Table I)."""

    rankcache_access_pj: float = 50.0
    fp32_add_pj: float = 7.89
    fp32_mult_pj: float = 25.2
    dram: DramEnergyParameters = DramEnergyParameters()

    def __post_init__(self):
        for name in ("rankcache_access_pj", "fp32_add_pj", "fp32_mult_pj"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative" % name)


@dataclass
class EnergyReport:
    """Energy breakdown (nanojoules) of one SLS execution."""

    activate_nj: float = 0.0
    dram_read_nj: float = 0.0
    offchip_io_nj: float = 0.0
    rankcache_nj: float = 0.0
    compute_nj: float = 0.0
    background_nj: float = 0.0

    @property
    def total_nj(self):
        return (self.activate_nj + self.dram_read_nj + self.offchip_io_nj
                + self.rankcache_nj + self.compute_nj + self.background_nj)


class RecNMPEnergyModel:
    """Compute baseline-vs-RecNMP memory energy for an SLS workload."""

    def __init__(self, parameters=None):
        self.parameters = parameters or NMPEnergyParameters()

    # ------------------------------------------------------------------ #
    def baseline_energy(self, num_lookups, vector_bytes, activations,
                        elapsed_ns, active_ranks=8, batch_outputs=0,
                        output_bytes=0):
        """Energy of the CPU baseline: every vector crosses the interface."""
        p = self.parameters
        dram = p.dram
        report = EnergyReport()
        bytes_read = num_lookups * vector_bytes
        report.activate_nj = activations * dram.activate_nj
        report.dram_read_nj = bytes_read * 8 * dram.read_write_pj_per_bit \
            / 1_000.0
        report.offchip_io_nj = bytes_read * 8 * dram.offchip_io_pj_per_bit \
            / 1_000.0
        # The CPU performs the pooling additions too, but that energy lives
        # in the core, not in the memory system the paper compares.
        report.background_nj = (dram.background_mw_per_rank * active_ranks *
                                elapsed_ns) / 1_000_000.0
        del batch_outputs, output_bytes
        return report

    def recnmp_energy(self, num_lookups, vector_bytes, activations,
                      cache_hits, elapsed_ns, num_outputs, active_ranks=8,
                      weighted=False):
        """Energy of RecNMP execution of the same workload.

        ``cache_hits`` vectors are served from the RankCache (no DRAM read,
        no activation); only ``num_outputs`` pooled vectors cross the
        off-chip interface.
        """
        p = self.parameters
        dram = p.dram
        report = EnergyReport()
        dram_lookups = max(0, num_lookups - cache_hits)
        bytes_read = dram_lookups * vector_bytes
        report.activate_nj = activations * dram.activate_nj
        report.dram_read_nj = bytes_read * 8 * dram.read_write_pj_per_bit \
            / 1_000.0
        output_bytes = num_outputs * vector_bytes
        report.offchip_io_nj = output_bytes * 8 * dram.offchip_io_pj_per_bit \
            / 1_000.0
        # RankCache is consulted for every lookup and filled on misses.
        cache_accesses = num_lookups + dram_lookups
        report.rankcache_nj = cache_accesses * p.rankcache_access_pj / 1_000.0
        elements_per_vector = vector_bytes / 4.0
        adds = num_lookups * elements_per_vector
        mults = adds if weighted else 0.0
        report.compute_nj = (adds * p.fp32_add_pj
                             + mults * p.fp32_mult_pj) / 1_000.0
        report.background_nj = (dram.background_mw_per_rank * active_ranks *
                                elapsed_ns) / 1_000_000.0
        return report
