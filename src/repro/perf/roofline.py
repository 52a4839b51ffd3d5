"""Roofline model (Section II-D, Fig. 1(b) and Fig. 5).

The roofline plots attainable performance against operational intensity:
``min(peak_flops, bandwidth * intensity)``.  The paper places the SLS and FC
operators and the full RM1/RM2 models on the Skylake roofline, observes that
the models sit in the bandwidth-bound region within 35 % of the bound, and
shows that RecNMP lifts the bandwidth roof by exposing the (8x) internal
rank-level bandwidth.
"""

from dataclasses import dataclass

from repro.perf.system import SKYLAKE_SYSTEM


@dataclass
class RooflinePoint:
    """One operator/model point on the roofline."""

    name: str
    operational_intensity: float     # FLOP / byte
    performance_flops: float         # achieved FLOP/s
    batch_size: int = 0

    def __post_init__(self):
        if self.operational_intensity <= 0:
            raise ValueError("operational_intensity must be positive")
        if self.performance_flops < 0:
            raise ValueError("performance_flops must be non-negative")


class RooflineModel:
    """Attainable-performance roofline for the evaluation platform."""

    def __init__(self, system=None, bandwidth_gbps=None, peak_flops=None):
        self.system = system or SKYLAKE_SYSTEM
        self.bandwidth_gbps = bandwidth_gbps or self.system.peak_bandwidth_gbps
        self.peak_flops = peak_flops or self.system.peak_flops
        if self.bandwidth_gbps <= 0 or self.peak_flops <= 0:
            raise ValueError("bandwidth and peak_flops must be positive")

    # ------------------------------------------------------------------ #
    def attainable_flops(self, operational_intensity):
        """Roofline bound at a given operational intensity (FLOP/byte)."""
        if operational_intensity <= 0:
            raise ValueError("operational_intensity must be positive")
        memory_bound = self.bandwidth_gbps * 1e9 * operational_intensity
        return min(self.peak_flops, memory_bound)

    @property
    def ridge_point(self):
        """Operational intensity where the memory roof meets the compute roof."""
        return self.peak_flops / (self.bandwidth_gbps * 1e9)

    def is_memory_bound(self, operational_intensity):
        """True if the given intensity sits under the bandwidth roof."""
        return operational_intensity < self.ridge_point

    def efficiency(self, point):
        """Achieved fraction of the roofline bound for a measured point."""
        bound = self.attainable_flops(point.operational_intensity)
        if bound <= 0:
            return 0.0
        return point.performance_flops / bound

    # ------------------------------------------------------------------ #
    def lifted(self, bandwidth_multiplier):
        """A new roofline with the memory roof lifted by ``multiplier``.

        RecNMP exposes the aggregated internal bandwidth of all parallel
        ranks under a channel (8x for 4 DIMMs x 2 ranks), lifting the
        bandwidth-bound region of the roofline by that factor.
        """
        if bandwidth_multiplier <= 0:
            raise ValueError("bandwidth_multiplier must be positive")
        return RooflineModel(system=self.system,
                             bandwidth_gbps=self.bandwidth_gbps
                             * bandwidth_multiplier,
                             peak_flops=self.peak_flops)

    def speedup_from_lift(self, operational_intensity, bandwidth_multiplier):
        """Bound-to-bound speedup of lifting the roof at a given intensity."""
        lifted = self.lifted(bandwidth_multiplier)
        return (lifted.attainable_flops(operational_intensity)
                / self.attainable_flops(operational_intensity))

    # ------------------------------------------------------------------ #
    def operator_point(self, name, flops, bytes_moved, time_seconds,
                       batch_size=0):
        """Build a :class:`RooflinePoint` from operator characteristics."""
        if bytes_moved <= 0 or time_seconds <= 0:
            raise ValueError("bytes_moved and time_seconds must be positive")
        return RooflinePoint(
            name=name,
            operational_intensity=flops / bytes_moved,
            performance_flops=flops / time_seconds,
            batch_size=batch_size,
        )
