"""FC cache-contention under model co-location (Section V-B, Fig. 17).

Co-locating several recommendation models on one server raises throughput
but degrades latency: the streaming SLS accesses evict reusable FC weights
from the shared LLC, so the co-located FC operators slow down.  The amount
of degradation grows with the FC working-set size (TopFC of RM2-large spills
into the LLC), the co-location degree, and the pooling factor (more SLS
bytes per inference).  Offloading SLS to RecNMP removes that traffic from
the cache hierarchy, recovering most of the loss (up to ~30 % for large
TopFC layers, ~4 % for FCs that fit in L2).

The model is a cache-pressure interpolation calibrated to those published
end-points; it provides both the baseline degradation and the RecNMP relief.
"""

from dataclasses import dataclass

from repro.perf.system import SKYLAKE_SYSTEM


@dataclass
class ColocationResult:
    """FC slowdown of one configuration (relative execution times)."""

    fc_name: str
    colocation_degree: int
    pooling_factor: int
    baseline_slowdown: float     # co-located FC time / isolated FC time (CPU)
    recnmp_slowdown: float       # same with SLS offloaded to RecNMP

    @property
    def recnmp_improvement(self):
        """Fractional FC latency reduction RecNMP provides at this point."""
        if self.baseline_slowdown <= 0:
            return 0.0
        return 1.0 - self.recnmp_slowdown / self.baseline_slowdown


@dataclass
class ColocationModel:
    """Cache-contention model for co-located FC operators.

    Attributes
    ----------
    system:
        Host system parameters (L2 / LLC capacities).
    max_llc_degradation:
        Worst-case FC slowdown (minus one) when the FC working set lives in
        the LLC and contention is maximal (Fig. 17(b): ~30 %).
    l2_resident_degradation:
        Residual slowdown for FCs whose weights fit in L2 (~4 %).
    sls_pressure_per_model:
        How much one co-located model's SLS stream contributes to LLC
        pressure (saturating).
    pooling_reference:
        Pooling factor at which the calibration holds (80 in the paper).
    recnmp_residual_fraction:
        Fraction of the contention that remains after offloading SLS to
        RecNMP (pooled outputs still traverse the cache).
    """

    system: object = None
    max_llc_degradation: float = 0.32
    l2_resident_degradation: float = 0.04
    sls_pressure_per_model: float = 0.35
    pooling_reference: int = 80
    recnmp_residual_fraction: float = 0.15

    def __post_init__(self):
        if self.system is None:
            self.system = SKYLAKE_SYSTEM
        if not 0 <= self.max_llc_degradation < 1:
            raise ValueError("max_llc_degradation must be in [0, 1)")
        if not 0 <= self.l2_resident_degradation <= self.max_llc_degradation:
            raise ValueError("l2_resident_degradation must be in "
                             "[0, max_llc_degradation]")
        if not 0 <= self.recnmp_residual_fraction <= 1:
            raise ValueError("recnmp_residual_fraction must be in [0, 1]")

    # ------------------------------------------------------------------ #
    def _cache_sensitivity(self, fc_weight_bytes):
        """0 (fits in L2, insensitive) .. 1 (deep in LLC, fully sensitive)."""
        l2 = self.system.l2_bytes
        llc = self.system.llc_bytes
        if fc_weight_bytes <= l2:
            return 0.0
        if fc_weight_bytes >= llc:
            return 1.0
        # Log interpolation between the L2 and LLC capacities.
        import math

        return (math.log(fc_weight_bytes / l2)
                / math.log(llc / l2))

    def _contention_pressure(self, colocation_degree, pooling_factor):
        """0 .. 1 saturating pressure from co-located SLS streams."""
        if colocation_degree < 1:
            raise ValueError("colocation_degree must be >= 1")
        if pooling_factor <= 0:
            raise ValueError("pooling_factor must be positive")
        competing = colocation_degree - 1
        pooling_scale = min(2.0, pooling_factor / self.pooling_reference)
        raw = competing * self.sls_pressure_per_model * pooling_scale
        return raw / (1.0 + raw)

    # ------------------------------------------------------------------ #
    def baseline_slowdown(self, fc_weight_bytes, colocation_degree,
                          pooling_factor=80):
        """Co-located / isolated FC time on the CPU baseline (>= 1)."""
        sensitivity = self._cache_sensitivity(fc_weight_bytes)
        pressure = self._contention_pressure(colocation_degree,
                                             pooling_factor)
        degradation = (self.l2_resident_degradation
                       + (self.max_llc_degradation
                          - self.l2_resident_degradation) * sensitivity)
        return 1.0 + degradation * pressure / \
            self._contention_pressure(8, self.pooling_reference)

    def recnmp_slowdown(self, fc_weight_bytes, colocation_degree,
                        pooling_factor=80):
        """Co-located / isolated FC time with SLS offloaded to RecNMP."""
        baseline = self.baseline_slowdown(fc_weight_bytes, colocation_degree,
                                          pooling_factor)
        return 1.0 + (baseline - 1.0) * self.recnmp_residual_fraction

    def fc_speedup_from_offload(self, fc_weight_bytes, colocation_degree,
                                pooling_factor=80):
        """FC speedup obtained by offloading SLS (baseline / RecNMP time)."""
        return (self.baseline_slowdown(fc_weight_bytes, colocation_degree,
                                       pooling_factor)
                / self.recnmp_slowdown(fc_weight_bytes, colocation_degree,
                                       pooling_factor))

    # ------------------------------------------------------------------ #
    def evaluate(self, fc_name, fc_weight_bytes, colocation_degrees,
                 pooling_factor=80):
        """Fig. 17-style sweep over co-location degrees for one FC layer."""
        results = []
        for degree in colocation_degrees:
            results.append(ColocationResult(
                fc_name=fc_name,
                colocation_degree=degree,
                pooling_factor=pooling_factor,
                baseline_slowdown=self.baseline_slowdown(
                    fc_weight_bytes, degree, pooling_factor),
                recnmp_slowdown=self.recnmp_slowdown(
                    fc_weight_bytes, degree, pooling_factor),
            ))
        return results
