"""The built-in :class:`EmbeddingSystem` implementations.

One class per compared system:

* :class:`HostSystem` -- the CPU + DDR4 baseline (cycle-level, memoised),
* :class:`TensorDIMMSystem` / :class:`ChameleonSystem` -- the analytical
  DIMM-level NMP baselines, grounded on the simulated host cycle count,
* :class:`RecNMPSystem` -- one RecNMP-equipped channel (cycle-level),
* :class:`MultiChannelSystem` -- the software-coordinated multi-channel
  RecNMP configuration.

Importing this module registers the built-in system names with the
registry (``host``, ``tensordimm``, ``chameleon``, ``recnmp-base``,
``recnmp-cache``, ``recnmp-sched``, ``recnmp-opt``, ``recnmp-opt-4ch``).
All systems share one keyword vocabulary (``num_dimms``,
``ranks_per_dimm``, ``vector_size_bytes``, ``address_of`` ...), so
``build_system(name, **overrides)`` works uniformly across families.
"""

from repro.core.multi_channel import MultiChannelRecNMP
from repro.core.simulator import RecNMPConfig, RecNMPSimulator
from repro.dram.system import DramSystemConfig
from repro.dram.timing import DDR4_2400
from repro.perf.baseline_cache import run_baseline_trace
from repro.systems.base import EmbeddingSystem, SystemResult, TableLayout
from repro.systems.registry import register_system


def _resolve_address_of(address_of, vector_size_bytes, table_rows):
    """Default to a dense :class:`TableLayout` when no map is given."""
    if address_of is not None:
        return address_of
    layout = TableLayout(num_rows=table_rows, vector_bytes=vector_size_bytes)
    return layout.address_of


def _workload_size(requests):
    return len(requests), sum(request.total_lookups for request in requests)


class HostSystem(EmbeddingSystem):
    """Host CPU executing SLS over the conventional DDR4 channel.

    Every embedding vector crosses the pin-limited memory interface and
    the cores perform the pooling additions, so throughput is bounded by
    the channel bandwidth (Section II).  ``run`` flattens the requests'
    lookups into a physical-address trace via ``address_of`` and runs it
    through the cycle-level DDR4 model, memoised process-wide
    (:mod:`repro.perf.baseline_cache`) -- the same trace the RecNMP
    simulator's baseline comparison uses, so the two normalisation
    points agree.  ``SystemResult.raw`` is the
    :class:`~repro.dram.system.DramSystemResult`.
    """

    def __init__(self, name="host", num_dimms=4, ranks_per_dimm=2,
                 vector_size_bytes=64, address_of=None, table_rows=100_000,
                 timing=None, outstanding=32, compare_baseline=True):
        del compare_baseline  # the host *is* the baseline
        self.name = name
        self.timing = timing or DDR4_2400
        self.vector_size_bytes = vector_size_bytes
        self.outstanding = outstanding
        self.address_of = _resolve_address_of(address_of, vector_size_bytes,
                                              table_rows)
        # Same shape as the RecNMP baseline comparison (one channel,
        # identically populated) so cycle counts -- and memoised baseline
        # cache entries -- line up across systems.
        self.dram_config = DramSystemConfig(
            timing=self.timing, num_channels=1,
            dimms_per_channel=num_dimms, ranks_per_dimm=ranks_per_dimm)

    def _run_baseline(self, requests):
        """The requests' lookup trace on the host DDR4 channel."""
        address_of = self.address_of
        addresses = [address_of(request.table_id, int(row))
                     for request in requests
                     for row in request.indices]
        return run_baseline_trace(self.dram_config, addresses,
                                  request_bytes=self.vector_size_bytes,
                                  outstanding_per_channel=self.outstanding)

    def run(self, requests):
        baseline = self._run_baseline(requests)
        num_requests, num_lookups = _workload_size(requests)
        return SystemResult(
            system=self.name,
            total_cycles=baseline.cycles,
            latency_ns=baseline.cycles * self.timing.cycle_time_ns,
            num_requests=num_requests,
            num_lookups=num_lookups,
            baseline_cycles=baseline.cycles,
            speedup_vs_baseline=1.0,
            energy_nj=baseline.energy_nj,
            baseline_energy_nj=baseline.energy_nj,
            energy_savings_fraction=0.0,
            extras={
                "achieved_bandwidth_gbps": baseline.achieved_bandwidth_gbps,
                "row_hit_rate": baseline.row_hit_rate,
            },
            raw=baseline,
        )

    def describe(self):
        return "%s: CPU + DDR4, %dx%d channel population" % (
            self.name, self.dram_config.dimms_per_channel,
            self.dram_config.ranks_per_dimm)


def _require_population(num_dimms, ranks_per_dimm):
    if num_dimms <= 0 or ranks_per_dimm <= 0:
        raise ValueError("num_dimms and ranks_per_dimm must be positive")


class _AnalyticalNMPSystem(HostSystem):
    """The analytical DIMM-level NMP baselines of Fig. 16.

    TensorDIMM and Chameleon are modelled as memory-latency speedups over
    the host DDR4 system: ``run`` simulates the host trace (memoised) and
    divides its cycle count by the subclass's ``speedup()``, the
    memory-latency speedup over the host baseline.  Neither design has a
    memory-side cache, so trace locality does not change the speedup.
    """

    def run(self, requests):
        baseline = self._run_baseline(requests)
        speedup = self.speedup()
        total_cycles = int(round(baseline.cycles / speedup))
        num_requests, num_lookups = _workload_size(requests)
        return SystemResult(
            system=self.name,
            total_cycles=total_cycles,
            latency_ns=total_cycles * self.timing.cycle_time_ns,
            num_requests=num_requests,
            num_lookups=num_lookups,
            baseline_cycles=baseline.cycles,
            speedup_vs_baseline=speedup,
            extras={"analytical": True},
            raw=baseline,
        )


class TensorDIMMSystem(_AnalyticalNMPSystem):
    """TensorDIMM (Kwon et al., MICRO 2019).

    NMP cores in custom DIMMs; consecutive 64 B blocks of each vector are
    interleaved across the DIMMs of a channel, so performance scales with
    the DIMM count (ranks do not contribute).  ``dimm_efficiency`` is the
    fraction of ideal DIMM-level parallelism realised (scheduling and
    reduction overheads).  With ``batch_parallel`` the independent
    poolings of a batch keep all DIMMs busy even when one vector does not
    span them (the configuration the paper's comparison assumes);
    without it the per-vector limit of :meth:`effective_parallelism`
    applies.
    """

    def __init__(self, name="tensordimm", num_dimms=4, ranks_per_dimm=2,
                 vector_size_bytes=64, address_of=None, table_rows=100_000,
                 timing=None, outstanding=32, dimm_efficiency=1.0,
                 batch_parallel=True, compare_baseline=True):
        _require_population(num_dimms, ranks_per_dimm)
        if not 0 < dimm_efficiency <= 1:
            raise ValueError("dimm_efficiency must be in (0, 1]")
        super().__init__(name, num_dimms, ranks_per_dimm, vector_size_bytes,
                         address_of, table_rows, timing, outstanding,
                         compare_baseline)
        self.num_dimms = num_dimms
        self.dimm_efficiency = dimm_efficiency
        self.batch_parallel = batch_parallel

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

    def speedup(self):
        if self.batch_parallel:
            parallelism = self.num_dimms
        else:
            parallelism = self.effective_parallelism(
                max(self.vector_size_bytes, 64))
        return parallelism * self.dimm_efficiency

    def describe(self):
        return "%s: analytical, %d DIMMs, efficiency %.2f" % (
            self.name, self.num_dimms, self.dimm_efficiency)


class ChameleonSystem(_AnalyticalNMPSystem):
    """Chameleon (Asghari-Moghaddam et al., MICRO 2016).

    CGRA accelerators in the data-buffer devices of an LRDIMM: DIMM-level
    like TensorDIMM, but the accelerators share the conventional C/A and
    DQ pins through temporal/spatial multiplexing.
    ``multiplexing_efficiency`` is the fraction of ideal DIMM-level
    parallelism that multiplexing leaves.  Vector size has no first-order
    effect: the accelerators sit at the data buffers and see whole
    bursts.
    """

    def __init__(self, name="chameleon", num_dimms=4, ranks_per_dimm=2,
                 vector_size_bytes=64, address_of=None, table_rows=100_000,
                 timing=None, outstanding=32, multiplexing_efficiency=0.7,
                 compare_baseline=True):
        _require_population(num_dimms, ranks_per_dimm)
        if not 0 < multiplexing_efficiency <= 1:
            raise ValueError("multiplexing_efficiency must be in (0, 1]")
        super().__init__(name, num_dimms, ranks_per_dimm, vector_size_bytes,
                         address_of, table_rows, timing, outstanding,
                         compare_baseline)
        self.num_dimms = num_dimms
        self.multiplexing_efficiency = multiplexing_efficiency

    def speedup(self):
        return self.num_dimms * self.multiplexing_efficiency

    def describe(self):
        return "%s: analytical, %d DIMMs, multiplexing %.2f" % (
            self.name, self.num_dimms, self.multiplexing_efficiency)


def _recnmp_system_result(name, result, cycle_time_ns, num_requests,
                          num_lookups):
    """Map a :class:`RecNMPResult` onto the canonical shape."""
    return SystemResult(
        system=name,
        total_cycles=result.total_cycles,
        latency_ns=result.total_cycles * cycle_time_ns,
        num_requests=num_requests,
        num_lookups=num_lookups,
        baseline_cycles=result.baseline_cycles,
        speedup_vs_baseline=result.speedup_vs_baseline,
        energy_nj=result.energy_nj,
        baseline_energy_nj=result.baseline_energy_nj,
        energy_savings_fraction=result.energy_savings_fraction,
        cache_hit_rate=result.cache_hit_rate,
        load_imbalance=result.load_imbalance,
        extras={
            "num_packets": result.num_packets,
            "rank_load": list(result.rank_load),
        },
        raw=result,
    )


class RecNMPSystem(EmbeddingSystem):
    """One RecNMP-equipped memory channel (cycle-level simulation).

    ``backend``/``max_workers`` are accepted (and ignored) so callers can
    pass one execution-backend configuration uniformly to single- and
    multi-channel systems: a single channel has nothing to parallelise.
    """

    def __init__(self, name="recnmp-opt", address_of=None, table_rows=100_000,
                 compare_baseline=True, backend=None, max_workers=None,
                 **config_overrides):
        del backend, max_workers  # single channel: nothing to parallelise
        self.name = name
        self.compare_baseline = compare_baseline
        self.config = RecNMPConfig(**config_overrides)
        resolved = _resolve_address_of(address_of,
                                       self.config.vector_size_bytes,
                                       table_rows)
        self.simulator = RecNMPSimulator(self.config, address_of=resolved)

    def run(self, requests):
        # Each run() is independent (as if on a fresh simulator); reset
        # clears channel timing, caches and the packet generator so
        # results do not depend on call order.
        self.simulator.reset()
        result = self.simulator.run_requests(
            requests, compare_baseline=self.compare_baseline)
        num_requests, num_lookups = _workload_size(requests)
        return _recnmp_system_result(
            self.name, result, self.config.timing.cycle_time_ns,
            num_requests, num_lookups)

    def reset(self):
        self.simulator.reset()

    def describe(self):
        return "%s: %s" % (self.name, self.config.label())


class MultiChannelSystem(EmbeddingSystem):
    """Software-coordinated RecNMP across several memory channels.

    ``backend`` selects how the per-channel cycle simulations execute
    (``"serial"`` / ``"process"`` or a ready
    :class:`~repro.core.backend.ParallelBackend`); ``max_workers`` bounds
    the worker pool.  The default dense :class:`TableLayout` address map
    is a bound method of a picklable dataclass, so the process backend
    works out of the box.
    """

    def __init__(self, name="recnmp-opt-4ch", num_channels=4,
                 address_of=None, table_rows=100_000, compare_baseline=True,
                 max_workers=None, backend=None, **config_overrides):
        self.name = name
        self.compare_baseline = compare_baseline
        self.config = RecNMPConfig(**config_overrides)
        resolved = _resolve_address_of(address_of,
                                       self.config.vector_size_bytes,
                                       table_rows)
        self.coordinator = MultiChannelRecNMP(
            num_channels=num_channels, channel_config=self.config,
            address_of=resolved, max_workers=max_workers, backend=backend)

    def run(self, requests):
        self.coordinator.reset()
        result = self.coordinator.run_requests(
            requests, compare_baseline=self.compare_baseline)
        num_requests, num_lookups = _workload_size(requests)
        return SystemResult(
            system=self.name,
            total_cycles=result.total_cycles,
            latency_ns=result.total_cycles
            * self.config.timing.cycle_time_ns,
            num_requests=num_requests,
            num_lookups=num_lookups,
            baseline_cycles=result.baseline_cycles,
            speedup_vs_baseline=result.speedup_vs_baseline,
            energy_nj=result.energy_nj,
            baseline_energy_nj=result.baseline_energy_nj,
            energy_savings_fraction=(
                1.0 - result.energy_nj / result.baseline_energy_nj
                if result.baseline_energy_nj > 0 else 0.0),
            cache_hit_rate=result.cache_hit_rate,
            load_imbalance=result.channel_utilization,
            extras={
                "num_channels": result.num_channels,
                "per_channel_cycles": list(result.per_channel_cycles),
                "per_channel_instructions":
                    list(result.per_channel_instructions),
            },
            raw=result,
        )

    def reset(self):
        self.coordinator.reset()

    def close(self):
        """Release pooled backend workers (idempotent)."""
        self.coordinator.close()

    def describe(self):
        return "%s: %d channels of %s (%s backend)" % (
            self.name, self.coordinator.num_channels, self.config.label(),
            self.coordinator.backend.name)


# --------------------------------------------------------------------- #
# Built-in registrations                                                #
# --------------------------------------------------------------------- #
_RECNMP_VARIANTS = {
    "recnmp-base": dict(use_rank_cache=False, scheduling_policy="fcfs",
                        enable_hot_entry_profiling=False),
    "recnmp-cache": dict(use_rank_cache=True, scheduling_policy="fcfs",
                         enable_hot_entry_profiling=False),
    "recnmp-sched": dict(use_rank_cache=True,
                         scheduling_policy="table-aware",
                         enable_hot_entry_profiling=False),
    "recnmp-opt": dict(use_rank_cache=True, scheduling_policy="table-aware",
                       enable_hot_entry_profiling=True),
}


def register_builtin_systems():
    """(Re-)register the built-in system names."""
    register_system(
        "host", HostSystem,
        description="Host CPU over conventional DDR4 (normalisation point)")
    register_system(
        "tensordimm", TensorDIMMSystem,
        description="TensorDIMM: DIMM-level NMP, scales with DIMM count")
    register_system(
        "chameleon", ChameleonSystem,
        description="Chameleon: CGRA NDA with C/A+DQ multiplexing penalty")
    descriptions = {
        "recnmp-base": "RecNMP without RankCache (FCFS, no profiling)",
        "recnmp-cache": "RecNMP + 128 KB RankCache (FCFS, no profiling)",
        "recnmp-sched": "RecNMP + RankCache + table-aware scheduling",
        "recnmp-opt": "RecNMP with all HW/SW co-optimisations",
    }
    for variant, preset in _RECNMP_VARIANTS.items():
        register_system(variant, RecNMPSystem,
                        description=descriptions[variant], **preset)
    register_system(
        "recnmp-opt-4ch", MultiChannelSystem,
        description="4 memory channels of RecNMP-opt, software-coordinated",
        num_channels=4, **_RECNMP_VARIANTS["recnmp-opt"])


register_builtin_systems()
