"""Host CPU baseline: SLS executed by the cores over the DDR4 channel.

Every embedding vector crosses the pin-limited memory interface, the cores
perform the pooling additions, and the achievable throughput is bounded by
the channel bandwidth (Section II).  The baseline is trace-driven, through
the cycle-level :class:`~repro.dram.system.DramSystem` (the normalisation
point of the RecNMP cycle simulator); the end-to-end and co-location
studies use the analytical :mod:`repro.perf.bandwidth` model instead.
"""

from dataclasses import dataclass

from repro.dram.system import DramSystemConfig
from repro.perf.baseline_cache import run_baseline_trace


@dataclass
class HostBaselineResult:
    """Result of running an SLS workload on the host baseline."""

    cycles: int
    latency_ns: float
    bytes_moved: int
    achieved_bandwidth_gbps: float
    energy_nj: float
    row_hit_rate: float

    def as_dict(self):
        return {
            "cycles": self.cycles,
            "latency_ns": self.latency_ns,
            "bytes_moved": self.bytes_moved,
            "achieved_bandwidth_gbps": self.achieved_bandwidth_gbps,
            "energy_nj": self.energy_nj,
            "row_hit_rate": self.row_hit_rate,
        }


class HostBaseline:
    """CPU + conventional DDR4 execution of SLS workloads."""

    def __init__(self, dram_config=None):
        self.dram_config = dram_config or DramSystemConfig(num_channels=1)

    # ------------------------------------------------------------------ #
    def run_trace(self, physical_addresses, vector_bytes=64,
                  outstanding=32, use_cache=True):
        """Cycle-level execution of a physical-address lookup trace.

        The underlying DDR4 simulation is memoised process-wide (see
        :mod:`repro.perf.baseline_cache`); pass ``use_cache=False`` to force
        a fresh simulation.
        """
        result = run_baseline_trace(self.dram_config, physical_addresses,
                                    request_bytes=vector_bytes,
                                    outstanding_per_channel=outstanding,
                                    use_cache=use_cache)
        return HostBaselineResult(
            cycles=result.cycles,
            latency_ns=result.cycles * self.dram_config.timing.cycle_time_ns,
            bytes_moved=result.requests * 64,   # requests are 64 B bursts
            achieved_bandwidth_gbps=result.achieved_bandwidth_gbps,
            energy_nj=result.energy_nj,
            row_hit_rate=result.row_hit_rate,
        )

    def run_requests(self, requests, address_of, vector_bytes=64,
                     outstanding=32, use_cache=True):
        """Cycle-level execution of a list of SLS requests.

        Flattens the requests' embedding lookups into a physical-address
        trace via ``address_of(table_id, row)`` and runs it through
        :meth:`run_trace` -- the same trace the RecNMP simulator's baseline
        comparison uses, so the two normalisation points agree.
        """
        addresses = [address_of(request.table_id, int(row))
                     for request in requests
                     for row in request.indices]
        return self.run_trace(addresses, vector_bytes=vector_bytes,
                              outstanding=outstanding, use_cache=use_cache)
