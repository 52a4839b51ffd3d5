"""Parameters of the real-system evaluation platform (Table I).

The paper's baseline is a single-socket 18-core Intel Skylake server at
1.6 GHz with 64 GB of DDR4-2400 over 4 channels: 0.98 TFLOP/s of FP32
compute, 76.8 GB/s of theoretical memory bandwidth, 62.1 GB/s measured with
Intel MLC, and a 32 KB L1 / 1 MB L2 / 24.75 MB LLC cache hierarchy.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParameters:
    """Host CPU and memory-system parameters used by the analytical models."""

    num_cores: int = 18
    frequency_ghz: float = 1.6
    peak_flops: float = 0.98e12
    peak_bandwidth_gbps: float = 76.8
    measured_bandwidth_gbps: float = 62.1
    l1_kb: float = 32.0
    l2_mb: float = 1.0
    llc_mb: float = 24.75
    num_channels: int = 4
    ranks_per_channel: int = 2

    def __post_init__(self):
        for name in ("num_cores", "frequency_ghz", "peak_flops",
                     "peak_bandwidth_gbps", "measured_bandwidth_gbps",
                     "l1_kb", "l2_mb", "llc_mb", "num_channels",
                     "ranks_per_channel"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if self.measured_bandwidth_gbps > self.peak_bandwidth_gbps:
            raise ValueError("measured bandwidth cannot exceed the peak")

    @property
    def llc_bytes(self):
        return int(self.llc_mb * 1024 * 1024)

    @property
    def l2_bytes(self):
        return int(self.l2_mb * 1024 * 1024)


#: The 18-core Skylake configuration of Table I.
SKYLAKE_SYSTEM = SystemParameters()
