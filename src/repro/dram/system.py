"""Whole-memory-system wrapper: multiple channels plus energy accounting.

The :class:`DramSystem` is the baseline memory substrate the host CPU model
and the RecNMP processing units sit on.  It distributes a physical address
trace over its channels, runs each channel's FR-FCFS controller, and reports
latency, bandwidth and energy.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.dram.address_mapping import MemoryGeometry, SkylakeAddressMapping
from repro.dram.controller import MemoryController, check_outstanding_limit
from repro.dram.energy import DramEnergyModel
from repro.dram.timing import DDR4_2400, DDR4Timing


@dataclass
class DramSystemConfig:
    """Configuration of the simulated memory system.

    The default matches Table I: DDR4-2400, 4 channels x 1 DIMM x 2 ranks,
    FR-FCFS with a 32-entry read queue and an open-page policy.
    """

    timing: DDR4Timing = field(default_factory=lambda: DDR4_2400)
    num_channels: int = 4
    dimms_per_channel: int = 1
    ranks_per_dimm: int = 2
    queue_depth: int = 32

    def __post_init__(self):
        if self.num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if self.dimms_per_channel <= 0:
            raise ValueError("dimms_per_channel must be positive")
        if self.ranks_per_dimm <= 0:
            raise ValueError("ranks_per_dimm must be positive")

    @property
    def ranks_per_channel(self):
        return self.dimms_per_channel * self.ranks_per_dimm

    @property
    def total_ranks(self):
        return self.num_channels * self.ranks_per_channel

    def geometry(self):
        """Build the matching :class:`MemoryGeometry`."""
        return MemoryGeometry(
            num_channels=self.num_channels,
            dimms_per_channel=self.dimms_per_channel,
            ranks_per_dimm=self.ranks_per_dimm,
        )

    @property
    def peak_bandwidth_gbps(self):
        """Theoretical peak bandwidth across all channels in GB/s."""
        per_channel = self.timing.data_rate_mts * 1e6 * 8  # 64-bit bus
        return self.num_channels * per_channel / 1e9


@dataclass
class DramSystemResult:
    """Result of running a trace through the memory system."""

    cycles: int
    average_latency_cycles: float
    average_latency_ns: float
    requests: int
    row_hit_rate: float
    achieved_bandwidth_gbps: float
    energy_nj: float
    energy_breakdown: dict
    per_channel_stats: list

    def as_dict(self):
        return {
            "cycles": self.cycles,
            "average_latency_cycles": self.average_latency_cycles,
            "average_latency_ns": self.average_latency_ns,
            "requests": self.requests,
            "row_hit_rate": self.row_hit_rate,
            "achieved_bandwidth_gbps": self.achieved_bandwidth_gbps,
            "energy_nj": self.energy_nj,
            "energy_breakdown": self.energy_breakdown,
        }


class DramSystem:
    """A multi-channel DDR4 memory system with per-channel FR-FCFS control."""

    def __init__(self, config=None, energy_model=None):
        self.config = config or DramSystemConfig()
        geometry = self.config.geometry()
        self.geometry = geometry
        self.energy_model = energy_model or DramEnergyModel()
        self.controllers = self._new_controllers()

    def _new_controllers(self):
        """One idle FR-FCFS controller per channel, at cycle 0."""
        return [
            MemoryController(
                timing=self.config.timing,
                num_dimms=self.config.dimms_per_channel,
                ranks_per_dimm=self.config.ranks_per_dimm,
                address_mapping=SkylakeAddressMapping(self.geometry),
                queue_depth=self.config.queue_depth,
                channel_index=channel,
            )
            for channel in range(self.config.num_channels)
        ]

    # ------------------------------------------------------------------ #
    def run_trace(self, physical_addresses, request_bytes=64,
                  outstanding_per_channel=None):
        """Run a read trace through the system and return aggregate results.

        Parameters
        ----------
        physical_addresses:
            Iterable of physical byte addresses (one request each).
        request_bytes:
            Size of each request in bytes.  Requests larger than one 64 B
            burst are expanded into consecutive 64 B reads (the DRAM devices
            transfer 64 B per burst), so a 256 B embedding vector costs four
            bursts on the channel exactly as it does on real hardware.
        outstanding_per_channel:
            Optional cap (at least 1) on in-flight requests per channel.

        The whole burst trace is decoded once, here, with the first
        channel's mapping (which picks its channel), and each channel's
        controller drains its bursts as int columns.  Every call starts
        from idle controllers at cycle 0, so its result covers its own
        trace only; ``controllers`` then holds that call's controllers.
        """
        if request_bytes <= 0 or request_bytes % 64:
            raise ValueError("request_bytes must be a positive multiple of 64")
        check_outstanding_limit("outstanding_per_channel",
                                outstanding_per_channel)
        addresses = np.fromiter(physical_addresses, dtype=np.int64)
        bursts_per_request = request_bytes // 64
        if bursts_per_request > 1:
            addresses = (addresses[:, None]
                         + 64 * np.arange(bursts_per_request)).ravel()
        self.controllers = self._new_controllers()
        decoded = self.controllers[0].address_mapping.map_array(addresses)

        per_channel_stats = []
        max_cycles = 0
        total_latency = 0.0
        total_requests = 0
        row_hits = 0
        row_outcomes = 0
        activations = 0
        for index, controller in enumerate(self.controllers):
            mine = decoded[0] == index
            if not mine.any():
                continue
            fields = [field[mine] for field in decoded]
            stats = controller._drain(controller._columns(fields),
                                      outstanding_per_channel)
            per_channel_stats.append(stats)
            max_cycles = max(max_cycles, stats.cycles_elapsed)
            total_latency += stats.total_latency_cycles
            total_requests += stats.requests_completed
            row_hits += stats.row_hits
            row_outcomes += (stats.row_hits + stats.row_misses
                             + stats.row_conflicts)
            activations += stats.row_misses + stats.row_conflicts

        timing = self.config.timing
        average_latency_cycles = (total_latency / total_requests
                                  if total_requests else 0.0)
        elapsed_ns = max_cycles * timing.cycle_time_ns
        bytes_moved = total_requests * 64   # each completed request is a burst
        bandwidth_gbps = (bytes_moved / elapsed_ns) if elapsed_ns else 0.0
        breakdown = self.energy_model.energy(
            activations=activations,
            bytes_read=bytes_moved,
            bytes_to_host=bytes_moved,
            elapsed_ns=elapsed_ns,
            active_ranks=self.config.total_ranks,
        )
        return DramSystemResult(
            cycles=max_cycles,
            average_latency_cycles=average_latency_cycles,
            average_latency_ns=average_latency_cycles * timing.cycle_time_ns,
            requests=total_requests,
            row_hit_rate=(row_hits / row_outcomes) if row_outcomes else 0.0,
            achieved_bandwidth_gbps=bandwidth_gbps,
            energy_nj=breakdown.total_nj,
            energy_breakdown=breakdown.as_dict(),
            per_channel_stats=per_channel_stats,
        )
