"""CPU operator latency model (Section II-C, Fig. 4).

The model estimates the per-batch execution time of the three operator
groups of a DLRM inference on the Skylake baseline:

* **SLS** -- bandwidth-bound: bytes gathered divided by the effective
  per-worker memory bandwidth.
* **FC** (BottomFC + TopFC) -- roofline-shaped: a weight-streaming term that
  is paid once per batch (weights read through the cache hierarchy) plus a
  compute term that grows with batch size.
* **Other** -- framework overhead, feature interaction, concatenation; a
  small fixed plus per-sample cost.

The absolute numbers are calibrated to a single model worker on the
18-core Skylake of Table I; the quantities the paper's figures rely on --
the *fraction* of time in SLS, how it grows with batch size and table
count -- follow from the structure of the model.
"""

from dataclasses import dataclass, field

from repro.dlrm.config import ModelConfig
from repro.perf.system import SKYLAKE_SYSTEM


@dataclass
class OperatorBreakdown:
    """Per-operator latency of one inference batch (microseconds)."""

    model_name: str
    batch_size: int
    sls_us: float
    fc_us: float
    other_us: float

    @property
    def total_us(self):
        return self.sls_us + self.fc_us + self.other_us

    @property
    def sls_fraction(self):
        if self.total_us <= 0:
            return 0.0
        return self.sls_us / self.total_us

    @property
    def fc_fraction(self):
        if self.total_us <= 0:
            return 0.0
        return self.fc_us / self.total_us


@dataclass
class OperatorLatencyModel:
    """Estimate FC / SLS / other operator latency for one model worker.

    Attributes
    ----------
    system:
        Host system parameters.
    sls_effective_gbps:
        Memory bandwidth one model worker's SLS threads achieve (a fraction
        of the channel bandwidth shared with co-located workers).
    fc_effective_gflops:
        Effective GEMM throughput of one worker (GFLOP/s).
    fc_weight_stream_gbps:
        Bandwidth at which FC weights stream through the cache hierarchy on
        the first touch of a batch.
    other_fixed_us / other_per_sample_us:
        Fixed and per-sample cost of the remaining operators.
    """

    system: object = None
    sls_effective_gbps: float = 10.0
    fc_effective_gflops: float = 600.0
    fc_weight_stream_gbps: float = 40.0
    other_fixed_us: float = 30.0
    other_per_sample_us: float = 0.15

    def __post_init__(self):
        if self.system is None:
            self.system = SKYLAKE_SYSTEM
        for name in ("sls_effective_gbps", "fc_effective_gflops",
                     "fc_weight_stream_gbps"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if self.other_fixed_us < 0 or self.other_per_sample_us < 0:
            raise ValueError("other-cost parameters must be non-negative")

    # ------------------------------------------------------------------ #
    def sls_time_us(self, config, batch_size, bandwidth_scale=1.0):
        """SLS execution time for one batch (microseconds)."""
        self._check(config, batch_size)
        if bandwidth_scale <= 0:
            raise ValueError("bandwidth_scale must be positive")
        bytes_gathered = batch_size * config.sls_bytes_per_sample()
        bandwidth = self.sls_effective_gbps * bandwidth_scale * 1e9
        return bytes_gathered / bandwidth * 1e6

    def fc_time_us(self, config, batch_size, efficiency_scale=1.0):
        """FC (bottom + top MLP) execution time for one batch."""
        self._check(config, batch_size)
        if efficiency_scale <= 0:
            raise ValueError("efficiency_scale must be positive")
        weight_bytes = config.fc_weight_bytes()
        stream_us = weight_bytes / (self.fc_weight_stream_gbps * 1e9) * 1e6
        flops = batch_size * config.fc_flops_per_sample()
        compute_us = flops / (self.fc_effective_gflops
                              * efficiency_scale * 1e9) * 1e6
        return stream_us + compute_us

    def other_time_us(self, config, batch_size):
        """Remaining operator time (interaction, concat, framework)."""
        self._check(config, batch_size)
        return self.other_fixed_us + self.other_per_sample_us * batch_size

    def breakdown(self, config, batch_size, sls_bandwidth_scale=1.0,
                  fc_efficiency_scale=1.0):
        """Full :class:`OperatorBreakdown` for one model and batch size."""
        self._check(config, batch_size)
        return OperatorBreakdown(
            model_name=config.name,
            batch_size=batch_size,
            sls_us=self.sls_time_us(config, batch_size, sls_bandwidth_scale),
            fc_us=self.fc_time_us(config, batch_size, fc_efficiency_scale),
            other_us=self.other_time_us(config, batch_size),
        )

    # ------------------------------------------------------------------ #
    def operator_roofline_inputs(self, config, batch_size):
        """FLOPs and bytes of the SLS and FC operators for roofline points.

        Returns a dictionary with per-operator ``(flops, bytes)`` tuples.
        The FC bytes are the weight bytes (activations are negligible and
        reused), matching the paper's observation that FC operational
        intensity grows with batch size while SLS intensity is flat.
        """
        self._check(config, batch_size)
        sls_flops = batch_size * config.sls_flops_per_sample()
        sls_bytes = batch_size * config.sls_bytes_per_sample()
        fc_flops = batch_size * config.fc_flops_per_sample()
        fc_bytes = config.fc_weight_bytes()
        return {
            "SLS": (sls_flops, sls_bytes),
            "FC": (fc_flops, fc_bytes),
            "model": (sls_flops + fc_flops, sls_bytes + fc_bytes),
        }

    @staticmethod
    def _check(config, batch_size):
        if not isinstance(config, ModelConfig):
            raise TypeError("config must be a ModelConfig")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
