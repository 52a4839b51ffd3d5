"""End-to-end model speedup composition (Section V-C, Fig. 18).

The paper estimates end-to-end inference speedup by weighting the speedup of
the offloaded SLS operators and the (slightly accelerated) non-SLS operators
by their baseline time fractions -- an Amdahl-style composition.  This
module implements that composition and the latency/throughput trade-off
curves under model co-location (Fig. 18(c)).
"""

from dataclasses import dataclass

from repro.perf.colocation import ColocationModel
from repro.perf.operator_latency import OperatorLatencyModel
from repro.utils.stats import weighted_harmonic_speedup


@dataclass
class ModelSpeedup:
    """End-to-end speedup estimate for one model configuration."""

    model_name: str
    batch_size: int
    sls_fraction: float
    sls_speedup: float
    non_sls_speedup: float
    end_to_end_speedup: float


class EndToEndModel:
    """Compose operator-level speedups into model-level speedups."""

    def __init__(self, latency_model=None, colocation_model=None):
        self.latency_model = latency_model or OperatorLatencyModel()
        self.colocation_model = colocation_model or ColocationModel()

    # ------------------------------------------------------------------ #
    def speedup(self, config, batch_size, sls_speedup, colocation_degree=1):
        """End-to-end speedup of one model at one batch size.

        ``sls_speedup`` is the memory-latency speedup of the offloaded SLS
        operators (from the RecNMP simulator, e.g. 9.8x for the 8-rank
        optimised design).  Non-SLS operators gain the cache-contention
        relief of Fig. 17 when models are co-located.
        """
        if sls_speedup <= 0:
            raise ValueError("sls_speedup must be positive")
        breakdown = self.latency_model.breakdown(config, batch_size)
        sls_fraction = breakdown.sls_fraction
        non_sls_fraction = 1.0 - sls_fraction
        non_sls_speedup = 1.0
        if colocation_degree > 1:
            non_sls_speedup = self.colocation_model.fc_speedup_from_offload(
                config.fc_weight_bytes(), colocation_degree,
                config.pooling_factor)
        end_to_end = weighted_harmonic_speedup(
            [sls_fraction, non_sls_fraction],
            [sls_speedup, non_sls_speedup])
        return ModelSpeedup(
            model_name=config.name,
            batch_size=batch_size,
            sls_fraction=sls_fraction,
            sls_speedup=sls_speedup,
            non_sls_speedup=non_sls_speedup,
            end_to_end_speedup=end_to_end,
        )


def latency_throughput_curve(latency_model, config, batch_size,
                             colocation_degrees, sls_speedup=1.0,
                             locality_bonus=1.0, colocation_model=None,
                             use_recnmp=False,
                             total_sls_bandwidth_gbps=40.0):
    """Latency-vs-throughput trade-off under co-location (Fig. 18(c)).

    Co-locating ``m`` models multiplies throughput by up to ``m`` while the
    shared memory bandwidth and cache contention stretch each model's
    latency.  A single model worker extracts only part of the system
    bandwidth (the latency model's ``sls_effective_gbps``), so co-location
    first raises throughput almost linearly; once the aggregate demand hits
    ``total_sls_bandwidth_gbps`` the per-model share shrinks and latency
    degrades -- the trade-off the paper's Fig. 18(c) shows.  Returns a list
    of points ``{"colocation": m, "latency_us": ...,
    "throughput_inferences_per_s": ...}``.

    ``locality_bonus`` models the latency benefit of production traces over
    random ones on the host (cache hits reduce effective SLS bytes); the
    bonus fades as co-location grows because the combined working set
    overwhelms the cache -- matching the paper's observation that the
    production-trace advantage wears off at high co-location.
    """
    colocation_model = colocation_model or ColocationModel()
    points = []
    for degree in colocation_degrees:
        if degree < 1:
            raise ValueError("colocation degrees must be >= 1")
        per_model_gbps = total_sls_bandwidth_gbps / degree
        bandwidth_share = min(
            1.0, per_model_gbps / latency_model.sls_effective_gbps)
        effective_bonus = 1.0 + (locality_bonus - 1.0) / degree
        breakdown = latency_model.breakdown(
            config, batch_size, sls_bandwidth_scale=bandwidth_share)
        sls_us = breakdown.sls_us / effective_bonus
        fc_slowdown = colocation_model.baseline_slowdown(
            config.fc_weight_bytes(), degree, config.pooling_factor)
        fc_us = breakdown.fc_us * fc_slowdown
        if use_recnmp:
            # The NMP's internal bandwidth is shared across co-located models
            # exactly like the channel bandwidth, which the bandwidth_share
            # factor above already captures; the offload speedup applies on
            # top of that share.
            sls_us = sls_us / sls_speedup
            fc_slowdown_nmp = colocation_model.recnmp_slowdown(
                config.fc_weight_bytes(), degree, config.pooling_factor)
            fc_us = breakdown.fc_us * fc_slowdown_nmp
        latency_us = sls_us + fc_us + breakdown.other_us
        throughput = degree * batch_size / (latency_us * 1e-6)
        points.append({
            "colocation": degree,
            "latency_us": latency_us,
            "throughput_inferences_per_s": throughput,
        })
    return points
