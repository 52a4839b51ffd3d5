"""Multi-channel RecNMP coordination.

A production server has several memory channels (four in Table I), each of
which can be populated with RecNMP-equipped DIMMs.  The paper notes that
partial sums "could be accumulated across multiple RecNMP PUs with software
coordination" and that multiple DDR4 channels "can also be utilized with
software coordination".  This module provides that coordination layer:

* embedding tables are distributed over the channels (round-robin by table,
  which keeps each SLS operator's lookups on a single channel and lets the
  channels run independently), and
* a batch of SLS requests is dispatched to the per-channel simulators, which
  execute concurrently in time -- the batch finishes when the slowest
  channel finishes -- while latency, energy and cache statistics aggregate
  across channels.
"""

from dataclasses import dataclass, field

from repro.core.backend import resolve_backend
from repro.core.simulator import RecNMPConfig, RecNMPSimulator


@dataclass
class MultiChannelResult:
    """Aggregate result of one multi-channel dispatch."""

    total_cycles: int
    per_channel_cycles: list
    per_channel_instructions: list
    baseline_cycles: int = 0
    speedup_vs_baseline: float = 0.0
    energy_nj: float = 0.0
    baseline_energy_nj: float = 0.0
    cache_hit_rate: float = 0.0
    channel_results: list = field(default_factory=list)

    @property
    def num_channels(self):
        return len(self.per_channel_cycles)

    @property
    def channel_utilization(self):
        """Fraction of lookups on the busiest channel (1/num_channels ideal)."""
        total = sum(self.per_channel_instructions)
        if not total:
            return 0.0
        return max(self.per_channel_instructions) / total


class MultiChannelRecNMP:
    """Software coordinator for RecNMP PUs across several memory channels.

    Parameters
    ----------
    num_channels:
        Memory channels populated with RecNMP DIMMs (Table I: 4).
    channel_config:
        The per-channel :class:`RecNMPConfig` (all channels identical).
    address_of:
        Callable ``(table_id, row) -> physical byte address`` shared by all
        channels (the channel selection is by table, not by address bits,
        so one SLS operator never straddles channels).
    max_workers:
        Upper bound on concurrent workers; defaults to one per busy
        channel.  Pass 1 to force sequential execution.
    backend:
        Execution backend for the per-channel simulations: ``"serial"``
        (the default and the reference), ``"process"`` (true multi-core;
        needs a picklable ``address_of``), or a ready
        :class:`~repro.core.backend.ParallelBackend` instance.  The
        process backend rebuilds fresh channel simulators per dispatch in
        its workers (the per-run-reset contract of the registry systems);
        serial reuses the coordinator's persistent simulators.
    """

    def __init__(self, num_channels=4, channel_config=None, address_of=None,
                 max_workers=None, backend=None):
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.num_channels = int(num_channels)
        self.channel_config = channel_config or RecNMPConfig()
        self.max_workers = max_workers
        self.address_of = address_of
        self.backend = resolve_backend(backend, max_workers=max_workers)
        self.simulators = [
            RecNMPSimulator(self.channel_config, address_of=address_of)
            for _ in range(self.num_channels)
        ]

    # ------------------------------------------------------------------ #
    def channel_of_table(self, table_id):
        """Channel a table (and therefore its SLS operators) is placed on."""
        if table_id < 0:
            raise ValueError("table_id must be non-negative")
        return int(table_id) % self.num_channels

    def partition_requests(self, requests):
        """Split a request list into per-channel lists by table placement."""
        partitions = [[] for _ in range(self.num_channels)]
        for request in requests:
            partitions[self.channel_of_table(request.table_id)].append(request)
        return partitions

    # ------------------------------------------------------------------ #
    def run_requests(self, requests, compare_baseline=True):
        """Dispatch a batch of SLS requests across all channels.

        Channels are independent (per-channel simulators, disjoint table
        partitions), so their simulation is delegated to the configured
        :class:`~repro.core.backend.ParallelBackend`: serial runs the
        coordinator's own simulators, the process backend ships
        picklable ``(config, requests)`` work units to a process pool so
        N channels use N cores, and merges worker-side baseline-cache
        entries back into this process.
        """
        partitions = self.partition_requests(requests)
        channel_results = [None] * self.num_channels
        jobs = [(slot, simulator, channel_requests)
                for slot, (simulator, channel_requests)
                in enumerate(zip(self.simulators, partitions))
                if channel_requests]
        if jobs:
            results = self.backend.run_channels(self, jobs,
                                                compare_baseline)
            for (slot, _, _), result in zip(jobs, results):
                channel_results[slot] = result
        per_channel_cycles = [r.total_cycles if r else 0
                              for r in channel_results]
        per_channel_instructions = [r.num_instructions if r else 0
                                    for r in channel_results]
        executed = [r for r in channel_results if r is not None]
        if not executed:
            raise ValueError("no requests were dispatched")
        total_cycles = max(per_channel_cycles)
        aggregate = MultiChannelResult(
            total_cycles=total_cycles,
            per_channel_cycles=per_channel_cycles,
            per_channel_instructions=per_channel_instructions,
            channel_results=channel_results,
        )
        aggregate.energy_nj = sum(r.energy_nj for r in executed)
        lookups = sum(r.num_instructions for r in executed)
        if lookups:
            aggregate.cache_hit_rate = sum(
                r.cache_hit_rate * r.num_instructions for r in executed
            ) / lookups
        if compare_baseline:
            # The host baseline also spreads the tables over its channels, so
            # the baseline batch time is the slowest channel's baseline time.
            aggregate.baseline_cycles = max(r.baseline_cycles
                                            for r in executed)
            aggregate.baseline_energy_nj = sum(r.baseline_energy_nj
                                               for r in executed)
            if aggregate.total_cycles:
                aggregate.speedup_vs_baseline = (aggregate.baseline_cycles
                                                 / aggregate.total_cycles)
        return aggregate

    def reset(self):
        """Reset every channel's simulator state."""
        for simulator in self.simulators:
            simulator.reset()

    def close(self):
        """Release pooled backend workers (idempotent)."""
        self.backend.shutdown()

    def __enter__(self):
        """Coordinators are context managers: exit releases the backend."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False
