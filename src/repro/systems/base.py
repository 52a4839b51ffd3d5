"""The unified embedding-system interface.

Every system the paper compares -- the host DDR4 baseline, TensorDIMM,
Chameleon, and the RecNMP variants -- answers the same question: *how fast
(and at what energy) does it execute a batch of SLS requests?*
:class:`EmbeddingSystem` is the one interface they all implement:
``run(requests)`` returns a canonical :class:`SystemResult`.

This module is dependency-free within :mod:`repro` so any layer (core,
serving) can import it without cycles.
"""

import abc
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TableLayout:
    """Dense row-major placement of equally-sized embedding tables.

    The default ``address_of`` used when a system is built without an
    explicit address map: table ``t`` occupies ``num_rows * vector_bytes``
    contiguous bytes starting at ``t * num_rows * vector_bytes``.
    """

    num_rows: int = 100_000
    vector_bytes: int = 64

    def __post_init__(self):
        if self.num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if self.vector_bytes <= 0 or self.vector_bytes % 64:
            raise ValueError("vector_bytes must be a positive multiple of 64")

    def address_of(self, table_id, row):
        """Physical byte address of ``(table_id, row)``."""
        return (table_id * self.num_rows + row) * self.vector_bytes


@dataclass
class SystemResult:
    """Canonical result of running one SLS workload on any embedding system.

    Each system maps its native result (the host's
    :class:`~repro.dram.system.DramSystemResult`, a ``RecNMPResult`` or a
    ``MultiChannelResult``) onto this one shape, so benchmarks and the
    serving layer compare systems without per-system glue.

    Attributes
    ----------
    system:
        Registry name (or label) of the system that produced the result.
    total_cycles, latency_ns:
        Execution time of the workload in DRAM cycles and nanoseconds.
    num_requests, num_lookups:
        Workload size (SLS requests and embedding rows gathered).
    baseline_cycles, speedup_vs_baseline:
        Host-DDR4 normalisation (the paper's memory-latency speedup); for
        the host system itself the speedup is 1.0 by construction.
    energy_nj, baseline_energy_nj, energy_savings_fraction:
        Memory energy of the run and its host-baseline comparison (0.0 for
        purely analytical systems that do not model energy).
    cache_hit_rate:
        Memory-side cache hit rate (0.0 for systems without one).
    load_imbalance:
        Fraction of work on the most-loaded execution unit (rank/channel).
    extras:
        System-specific metrics that have no canonical slot.
    raw:
        The native result object the system translated, for callers that
        need the full detail.
    """

    system: str
    total_cycles: int
    latency_ns: float
    num_requests: int = 0
    num_lookups: int = 0
    baseline_cycles: int = 0
    speedup_vs_baseline: float = 0.0
    energy_nj: float = 0.0
    baseline_energy_nj: float = 0.0
    energy_savings_fraction: float = 0.0
    cache_hit_rate: float = 0.0
    load_imbalance: float = 0.0
    extras: dict = field(default_factory=dict)
    raw: object = None

    @property
    def latency_us(self):
        return self.latency_ns / 1e3

    def as_dict(self):
        """JSON-serialisable summary (drops ``raw``)."""
        return {
            "system": self.system,
            "total_cycles": self.total_cycles,
            "latency_ns": self.latency_ns,
            "num_requests": self.num_requests,
            "num_lookups": self.num_lookups,
            "baseline_cycles": self.baseline_cycles,
            "speedup_vs_baseline": self.speedup_vs_baseline,
            "energy_nj": self.energy_nj,
            "baseline_energy_nj": self.baseline_energy_nj,
            "energy_savings_fraction": self.energy_savings_fraction,
            "cache_hit_rate": self.cache_hit_rate,
            "load_imbalance": self.load_imbalance,
            "extras": dict(self.extras),
        }


class EmbeddingSystem(abc.ABC):
    """Abstract embedding-serving memory system.

    Implementations wrap one of the simulated or analytical systems and
    translate its native result into a :class:`SystemResult`.  ``run()``
    calls are independent: implementations reset per-run simulator state
    first, so results never depend on call order (as if each workload ran
    on a fresh simulator).  :meth:`reset` restores the post-construction
    state explicitly.
    """

    #: Registry name; instances may override per-object (e.g. with a
    #: configuration label).
    name = "embedding-system"

    @abc.abstractmethod
    def run(self, requests):
        """Execute a batch of SLS requests; returns a :class:`SystemResult`."""

    def reset(self):
        """Reset mutable state (caches, counters); default: stateless."""

    def close(self):
        """Release external resources (pooled backend workers);
        default: nothing to release.  Idempotent."""

    def __enter__(self):
        """Systems are context managers: exit calls :meth:`close`."""
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.close()
        return False

    def describe(self):
        """Human-readable one-line description of the configuration."""
        return self.name

    def service_time_us(self, requests):
        """Execution time of a request batch in microseconds.

        The narrow hook the serving layer drives: it needs only the
        latency of a batch, not the full :class:`SystemResult`.  The
        default executes ``run()`` and reads the latency; systems with a
        cheaper latency-only path (analytical models, calibrated
        interpolators) may override it without touching ``run()``.
        """
        return self.run(requests).latency_ns / 1e3
