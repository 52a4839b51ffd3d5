"""Chameleon baseline model (Asghari-Moghaddam et al., MICRO 2016).

Chameleon integrates CGRA-type accelerators in the data-buffer devices of an
LRDIMM.  Like TensorDIMM it is a DIMM-level design; in addition, its
near-DRAM accelerators share the conventional C/A and DQ pins through
temporal/spatial multiplexing, which costs a fraction of the achievable
bandwidth.  It has no memory-side cache, so it cannot exploit the locality
of production traces either.  The paper estimates its embedding performance
by simulating that multiplexed timing; this module reproduces the resulting
scaling behaviour analytically.
"""

from dataclasses import dataclass


@dataclass
class Chameleon:
    """Analytical memory-latency speedup model of Chameleon NDA.

    Attributes
    ----------
    num_dimms, ranks_per_dimm:
        Memory channel population (rank count does not contribute).
    multiplexing_efficiency:
        Fraction of ideal DIMM-level parallelism retained after the
        temporal/spatial multiplexing of the C/A and DQ buses between the
        host and the in-DIMM accelerators.
    num_cgra_cores:
        CGRA cores per DIMM (8 in the published design) -- used only for the
        area/power comparison in Table II.
    """

    num_dimms: int = 4
    ranks_per_dimm: int = 2
    multiplexing_efficiency: float = 0.7
    num_cgra_cores: int = 8

    def __post_init__(self):
        if self.num_dimms <= 0 or self.ranks_per_dimm <= 0:
            raise ValueError("num_dimms and ranks_per_dimm must be positive")
        if not 0 < self.multiplexing_efficiency <= 1:
            raise ValueError("multiplexing_efficiency must be in (0, 1]")
        if self.num_cgra_cores <= 0:
            raise ValueError("num_cgra_cores must be positive")

    def memory_latency_speedup(self, vector_bytes=64, trace_kind="random"):
        """Memory-latency speedup over the host baseline.

        Locality (``trace_kind``) has no effect: Chameleon has no memory-
        side cache.  Vector size has no first-order effect either because
        the accelerators sit at the DIMM data buffers and see whole bursts.
        """
        del vector_bytes, trace_kind
        return self.num_dimms * self.multiplexing_efficiency

    def cycles_estimate(self, baseline_cycles, vector_bytes=64,
                        trace_kind="random"):
        """Estimated execution cycles given the host baseline's cycles."""
        if baseline_cycles < 0:
            raise ValueError("baseline_cycles must be non-negative")
        speedup = self.memory_latency_speedup(vector_bytes=vector_bytes,
                                              trace_kind=trace_kind)
        return int(round(baseline_cycles / speedup))
