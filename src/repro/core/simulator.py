"""The RecNMP cycle-level simulator (Fig. 13 methodology).

The simulator wires the pieces together: SLS requests are turned into NMP
packets (packet generator + hot-entry profiling), scheduled (table-aware or
FCFS), dispatched by the NMP-extended memory controller, and executed on the
RecNMP channel (rank-NMP DRAM timing + RankCache + DIMM-NMP reduction).  The
same physical-address trace runs through the baseline DDR4 system
(:class:`~repro.dram.system.DramSystem`) so memory-latency speedups can be
reported exactly as the paper does.

The command-issue inner loop runs on one of its bit-identical
implementations (see :mod:`repro.core.kernels`: the numba-jitted flat
kernel when available, the rank-NMP list loop otherwise); each result
records which flavor produced it in :attr:`RecNMPResult.kernel_flavor`.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core import kernels as _kernels
from repro.core.instruction import NMPOpcode, check_vector_size_bytes
from repro.core.memory_controller import NMPMemoryController
from repro.core.packet_generator import (
    PacketGenerator,
    PacketGeneratorConfig,
    check_generator_fields,
)
from repro.core.processing_unit import RecNMPChannel
from repro.core.rank_nmp import RankNMPConfig
from repro.core.energy import RecNMPEnergyModel
from repro.dram.system import DramSystemConfig
from repro.dram.timing import DDR4_2400
from repro.perf.baseline_cache import run_baseline_trace


@dataclass
class RecNMPConfig:
    """Configuration of one RecNMP-equipped memory channel.

    Attributes
    ----------
    num_dimms, ranks_per_dimm:
        Channel population; the paper sweeps 1x2, 1x4, 2x2, 2x4 and 4x2.
    use_rank_cache:
        Enable the memory-side RankCache ("RecNMP-base" when False).
    rank_cache_kb:
        RankCache capacity per rank in KB (128 KB is the paper's optimum).
    scheduling_policy:
        ``"table-aware"`` or ``"fcfs"``.
    enable_hot_entry_profiling:
        Fill LocalityBits from the batch profiler (the "+ profile" step).
    hot_entry_threshold:
        Repetition threshold of the profiler.
    poolings_per_packet:
        Poolings per NMP packet (Fig. 14(a) sweeps 1-8).
    vector_size_bytes:
        Embedding vector size: a multiple of 64 B, at most 960 B (the
        4-bit vsize field of an NMP-Inst).
    rank_assignment:
        ``"address"`` -- vectors land on ranks according to their (page-
        mapped, effectively random) physical addresses, which exposes the
        load imbalance of Fig. 14(b);
        ``"page-coloring"`` -- embedding tables are pinned to ranks and the
        concurrent SLS operators of co-located models keep every rank busy,
        modelled as balanced round-robin assignment.
    """

    num_dimms: int = 4
    ranks_per_dimm: int = 2
    use_rank_cache: bool = True
    rank_cache_kb: int = 128
    scheduling_policy: str = "table-aware"
    enable_hot_entry_profiling: bool = True
    hot_entry_threshold: int = 2
    poolings_per_packet: int = 8
    vector_size_bytes: int = 64
    rank_assignment: str = "address"
    timing: object = field(default_factory=lambda: DDR4_2400)
    opcode: NMPOpcode = NMPOpcode.SUM

    def __post_init__(self):
        if self.rank_assignment not in ("address", "page-coloring"):
            raise ValueError("rank_assignment must be 'address' or "
                             "'page-coloring'")
        if self.num_dimms <= 0 or self.ranks_per_dimm <= 0:
            raise ValueError("num_dimms and ranks_per_dimm must be positive")
        if self.rank_cache_kb <= 0 and self.use_rank_cache:
            raise ValueError("rank_cache_kb must be positive when the cache "
                             "is enabled")
        check_generator_fields(self.poolings_per_packet,
                               self.hot_entry_threshold)
        check_vector_size_bytes(self.vector_size_bytes)

    @property
    def num_ranks(self):
        return self.num_dimms * self.ranks_per_dimm

    def label(self):
        """Short configuration label, e.g. ``"4x2 RecNMP-opt"``."""
        variant = "RecNMP-base"
        if self.use_rank_cache:
            variant = "RecNMP-cache"
            if self.scheduling_policy == "table-aware":
                variant = "RecNMP-sched"
                if self.enable_hot_entry_profiling:
                    variant = "RecNMP-opt"
        return "%dx%d %s" % (self.num_dimms, self.ranks_per_dimm, variant)


@dataclass
class RecNMPResult:
    """Result of simulating one SLS workload on RecNMP."""

    total_cycles: int
    per_packet_cycles: list
    num_packets: int
    num_instructions: int
    cache_hit_rate: float
    rank_load: list
    load_imbalance: float
    kernel_flavor: str
    baseline_cycles: int = 0
    speedup_vs_baseline: float = 0.0
    energy_nj: float = 0.0
    baseline_energy_nj: float = 0.0
    energy_savings_fraction: float = 0.0
    channel_stats: dict = field(default_factory=dict)


class RecNMPSimulator:
    """Trace-driven, cycle-approximate simulator of a RecNMP channel."""

    def __init__(self, config=None, address_of=None):
        self.config = config or RecNMPConfig()
        rank_config = RankNMPConfig(
            timing=self.config.timing,
            use_cache=self.config.use_rank_cache,
            cache_capacity_bytes=self.config.rank_cache_kb * 1024,
            vector_size_bytes=self.config.vector_size_bytes,
        )
        self.channel = RecNMPChannel(
            num_dimms=self.config.num_dimms,
            ranks_per_dimm=self.config.ranks_per_dimm,
            rank_config=rank_config,
        )
        generator_config = PacketGeneratorConfig(
            poolings_per_packet=self.config.poolings_per_packet,
            vector_size_bytes=self.config.vector_size_bytes,
            enable_hot_entry_profiling=self.config.enable_hot_entry_profiling,
            hot_entry_threshold=self.config.hot_entry_threshold,
            opcode=self.config.opcode,
        )
        self.packet_generator = PacketGenerator(generator_config,
                                                address_of=address_of)
        self.energy_model = RecNMPEnergyModel()
        self._page_rank_cache = {}

    # ------------------------------------------------------------------ #
    # Rank assignment                                                    #
    # ------------------------------------------------------------------ #
    def _ranks_of_addresses(self, addresses):
        """Channel-rank index of each physical byte address (numpy array).

        Page colouring pins whole 4 KB pages (and therefore whole tables
        allocated with a single colour) to a rank; colours go round-robin
        to pages in first-touch order across every dispatch since the
        last reset, which balances the load of concurrently-running SLS
        operators.  Address hashing models the OS's random page mapping,
        which spreads 64 B blocks over ranks quasi-randomly.
        """
        num_ranks = self.config.num_ranks
        if self.config.rank_assignment == "address":
            blocks = addresses // 64
            return (blocks ^ (blocks >> 7) ^ (blocks >> 13)) % num_ranks
        pages, first, inverse = np.unique(addresses // 4096,
                                          return_index=True,
                                          return_inverse=True)
        known = self._page_rank_cache
        colours = np.array([known.get(page, -1) for page in pages.tolist()],
                           dtype=np.int64)
        new = np.flatnonzero(colours < 0)
        new = new[np.argsort(first[new], kind="stable")]
        colours[new] = (len(known) + np.arange(new.size)) % num_ranks
        known.update(zip(pages[new].tolist(), colours[new].tolist()))
        return colours[inverse]

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #
    def run_requests(self, requests, compare_baseline=True,
                     per_source_submission=None):
        """Run a list of SLS requests and (optionally) the DRAM baseline.

        ``per_source_submission`` optionally groups requests into separate
        submission sources (e.g. one per SLS thread) so the FCFS baseline
        scheduling interleaves them; by default each request is a source.
        """
        controller = NMPMemoryController(
            num_ranks=self.config.num_ranks,
            scheduling_policy=self.config.scheduling_policy,
            ranks_of_addresses=self._ranks_of_addresses,
        )
        if per_source_submission is None:
            per_source_submission = [[request] for request in requests]
        all_packets = []
        for source_requests in per_source_submission:
            packets = self.packet_generator.packets_for_requests(
                source_requests)
            controller.submit(packets)
            all_packets.extend(packets)
        total_cycles, per_packet = controller.dispatch(self.channel)

        num_instructions = sum(len(p) for p in all_packets)
        channel_stats = self.channel.aggregate_stats()
        rank_load = [controller.stats.per_rank_instructions.get(r, 0)
                     for r in range(self.config.num_ranks)]
        load_imbalance = self._load_imbalance(rank_load)

        result = RecNMPResult(
            total_cycles=total_cycles,
            per_packet_cycles=per_packet,
            num_packets=len(all_packets),
            num_instructions=num_instructions,
            cache_hit_rate=channel_stats["cache_hit_rate"],
            rank_load=rank_load,
            load_imbalance=load_imbalance,
            channel_stats=channel_stats,
            kernel_flavor=_kernels.active_flavor(),
        )
        self._fill_energy(result, channel_stats, requests)
        if compare_baseline:
            self._fill_baseline(result, all_packets)
        return result

    def _load_imbalance(self, rank_load):
        """Fraction of the work served by the most-loaded rank."""
        total = sum(rank_load)
        if not total:
            return 0.0
        return max(rank_load) / total

    def _fill_baseline(self, result, packets):
        """Run the same lookups through the baseline DDR4 channel.

        The baseline simulation is memoised process-wide (see
        :mod:`repro.perf.baseline_cache`): sweeps that vary only the RecNMP
        configuration replay the stored baseline instead of re-simulating it.
        """
        addresses = (np.concatenate(
            [packet.instructions.daddrs for packet in packets]
            or [np.empty(0, np.int64)]) * 64).tolist()
        baseline_config = DramSystemConfig(
            timing=self.config.timing,
            num_channels=1,
            dimms_per_channel=self.config.num_dimms,
            ranks_per_dimm=self.config.ranks_per_dimm,
        )
        baseline_result = run_baseline_trace(
            baseline_config, addresses,
            request_bytes=self.config.vector_size_bytes,
            outstanding_per_channel=32)
        result.baseline_cycles = baseline_result.cycles
        if result.total_cycles:
            result.speedup_vs_baseline = (baseline_result.cycles
                                          / result.total_cycles)
        # Baseline memory energy for the same lookups.
        num_lookups = result.num_instructions
        baseline_energy = self.energy_model.baseline_energy(
            num_lookups=num_lookups,
            vector_bytes=self.config.vector_size_bytes,
            activations=(baseline_result.per_channel_stats[0].row_misses
                         + baseline_result.per_channel_stats[0].row_conflicts
                         if baseline_result.per_channel_stats else
                         num_lookups),
            elapsed_ns=baseline_result.cycles
            * self.config.timing.cycle_time_ns,
            active_ranks=self.config.num_ranks,
        )
        result.baseline_energy_nj = baseline_energy.total_nj
        if result.baseline_energy_nj > 0:
            result.energy_savings_fraction = \
                1.0 - result.energy_nj / result.baseline_energy_nj

    def _fill_energy(self, result, channel_stats, requests):
        """RecNMP-side memory energy of the run."""
        num_outputs = sum(request.batch_size for request in requests)
        elapsed_ns = result.total_cycles * self.config.timing.cycle_time_ns
        report = self.energy_model.recnmp_energy(
            num_lookups=channel_stats["instructions"],
            vector_bytes=self.config.vector_size_bytes,
            activations=channel_stats["activations"],
            cache_hits=channel_stats["cache_hits"],
            elapsed_ns=elapsed_ns,
            num_outputs=num_outputs,
            active_ranks=self.config.num_ranks,
        )
        result.energy_nj = report.total_nj

    # ------------------------------------------------------------------ #
    def reset(self):
        """Reset all per-run state so the simulator can be reused.

        Clears the channel (RankCaches, DRAM timing, statistics), the
        page-colouring rank assignment, and the packet generator's packet-id
        counter and retained hot-entry profiles -- without the last one a
        reused simulator leaked locality state across runs.
        """
        self.channel.reset()
        self._page_rank_cache.clear()
        self.packet_generator.reset()
