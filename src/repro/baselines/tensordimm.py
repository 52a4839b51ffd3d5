"""TensorDIMM baseline model (Kwon et al., MICRO 2019).

TensorDIMM places NMP cores in custom DIMMs and interleaves consecutive
64 B blocks of each embedding vector across the DIMMs of a channel.  Its
embedding-operation performance therefore scales with the *DIMM count* and
relies on vectors being large enough to span all DIMMs; it has no memory-
side cache, so production-trace locality does not help it.  These are the
properties the Fig. 16 comparison exercises.
"""

from dataclasses import dataclass


@dataclass
class TensorDIMM:
    """Analytical memory-latency speedup model of TensorDIMM.

    Attributes
    ----------
    num_dimms, ranks_per_dimm:
        Memory channel population (ranks are listed for interface parity
        with RecNMP but do not contribute to TensorDIMM's scaling).
    dimm_efficiency:
        Fraction of the ideal DIMM-level parallelism realised (scheduling
        and reduction overheads).
    """

    num_dimms: int = 4
    ranks_per_dimm: int = 2
    dimm_efficiency: float = 1.0

    def __post_init__(self):
        if self.num_dimms <= 0 or self.ranks_per_dimm <= 0:
            raise ValueError("num_dimms and ranks_per_dimm must be positive")
        if not 0 < self.dimm_efficiency <= 1:
            raise ValueError("dimm_efficiency must be in (0, 1]")

    # ------------------------------------------------------------------ #
    def effective_parallelism(self, vector_bytes=256):
        """DIMMs that can work on one vector concurrently.

        The rank-interleaved layout splits a vector into 64 B blocks across
        DIMMs, so a vector only spans ``min(num_dimms, vector_bytes / 64)``
        DIMMs -- the reason TensorDIMM cannot accelerate small (64 B)
        vectors, as the paper points out.
        """
        if vector_bytes <= 0 or vector_bytes % 64:
            raise ValueError("vector_bytes must be a positive multiple of 64")
        return min(self.num_dimms, vector_bytes // 64)

    def memory_latency_speedup(self, vector_bytes=256, trace_kind="random",
                               batch_parallel=True):
        """Memory-latency speedup over the host baseline.

        ``trace_kind`` is accepted for interface parity with RecNMP but has
        no effect: without a memory-side cache TensorDIMM is agnostic to
        locality.  With ``batch_parallel`` the independent poolings of a
        batch keep all DIMMs busy even when a single vector does not span
        them, which recovers DIMM-level scaling (the configuration the
        paper's comparison assumes); without it the per-vector limit of
        :meth:`effective_parallelism` applies.
        """
        del trace_kind
        if batch_parallel:
            parallelism = self.num_dimms
        else:
            parallelism = self.effective_parallelism(vector_bytes)
        return parallelism * self.dimm_efficiency

    def cycles_estimate(self, baseline_cycles, vector_bytes=256,
                        trace_kind="random", batch_parallel=True):
        """Estimated execution cycles given the host baseline's cycles.

        The analytical model expresses TensorDIMM as a speedup over the host
        DDR4 system; scaling the simulated baseline cycle count by it yields
        the cycle estimate the unified system interface reports.
        """
        if baseline_cycles < 0:
            raise ValueError("baseline_cycles must be non-negative")
        speedup = self.memory_latency_speedup(vector_bytes=vector_bytes,
                                              trace_kind=trace_kind,
                                              batch_parallel=batch_parallel)
        return int(round(baseline_cycles / speedup))
