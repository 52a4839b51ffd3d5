"""Memory-bandwidth saturation model (Section II-E, Fig. 6).

The paper shows that parallel SLS threads saturate the memory bandwidth of
the 4-channel DDR4-2400 system: the theoretical peak is 76.8 GB/s, Intel MLC
measures an empirical ceiling of 62.1 GB/s, and at batch size 256 the SLS
threads reach 67.4 % of the peak (51.8 GB/s) around 30 threads, after which
memory latency climbs steeply.

The model captures that shape analytically: per-thread demand grows with
batch size, aggregate bandwidth follows a saturating curve bounded by the
MLC ceiling, and access latency grows super-linearly once utilisation
approaches saturation (a standard M/M/1-style queueing knee).
"""

from dataclasses import dataclass

from repro.perf.system import SKYLAKE_SYSTEM


@dataclass
class BandwidthSaturationModel:
    """Aggregate-bandwidth and latency model for parallel SLS threads.

    Attributes
    ----------
    system:
        Host system parameters (peak and measured bandwidth).
    per_thread_gbps_at_batch_1:
        Bandwidth demand of one SLS thread at batch size 1.
    batch_scaling_exponent:
        Demand grows roughly linearly with batch size but with diminishing
        returns from fixed per-operator overheads (exponent < 1).
    unloaded_latency_ns:
        DRAM access latency at low utilisation.
    """

    system: object = None
    per_thread_gbps_at_batch_1: float = 0.05
    batch_scaling_exponent: float = 0.85
    unloaded_latency_ns: float = 80.0

    def __post_init__(self):
        if self.system is None:
            self.system = SKYLAKE_SYSTEM
        if self.per_thread_gbps_at_batch_1 <= 0:
            raise ValueError("per_thread_gbps_at_batch_1 must be positive")
        if not 0 < self.batch_scaling_exponent <= 1:
            raise ValueError("batch_scaling_exponent must be in (0, 1]")
        if self.unloaded_latency_ns <= 0:
            raise ValueError("unloaded_latency_ns must be positive")

    # ------------------------------------------------------------------ #
    def thread_demand_gbps(self, batch_size):
        """Bandwidth demand of one SLS thread at a given batch size."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return (self.per_thread_gbps_at_batch_1
                * batch_size ** self.batch_scaling_exponent)

    def achieved_bandwidth_gbps(self, num_threads, batch_size):
        """Aggregate bandwidth achieved by ``num_threads`` SLS threads.

        The demand curve saturates smoothly at the MLC-measured ceiling
        (contention prevents reaching the theoretical peak).
        """
        if num_threads < 0:
            raise ValueError("num_threads must be non-negative")
        if num_threads == 0:
            return 0.0
        demand = num_threads * self.thread_demand_gbps(batch_size)
        ceiling = self.system.measured_bandwidth_gbps
        # Smooth saturation: achieved = ceiling * demand / (demand + ceiling/2)
        # approaches the ceiling asymptotically and is ~linear at low demand.
        return ceiling * demand / (demand + ceiling / 2.0)

    def utilization(self, num_threads, batch_size):
        """Fraction of the theoretical peak bandwidth consumed."""
        return (self.achieved_bandwidth_gbps(num_threads, batch_size)
                / self.system.peak_bandwidth_gbps)

    def access_latency_ns(self, num_threads, batch_size):
        """Average memory access latency under load (queueing knee).

        Latency stays near the unloaded value until utilisation of the
        measured ceiling approaches 1, then grows as 1 / (1 - u).
        """
        if num_threads == 0:
            return self.unloaded_latency_ns
        achieved = self.achieved_bandwidth_gbps(num_threads, batch_size)
        u = min(achieved / self.system.measured_bandwidth_gbps, 0.995)
        return self.unloaded_latency_ns / (1.0 - u)

    # ------------------------------------------------------------------ #
    def saturation_point(self, batch_size, threshold=0.674,
                         max_threads=72):
        """Smallest thread count whose utilisation exceeds ``threshold``.

        The default threshold is the 67.4 %-of-peak point the paper calls the
        saturation point (batch 256, ~30 threads).  Returns ``None`` if the
        threshold is never reached within ``max_threads``.
        """
        for threads in range(1, max_threads + 1):
            if self.utilization(threads, batch_size) >= threshold:
                return threads
        return None
