"""repro: a reproduction of RecNMP (ISCA 2020).

RecNMP is a lightweight, DDR4-compatible near-memory processing architecture
that accelerates the sparse embedding (SLS) operators dominating deep-learning
personalized recommendation inference.  This package reimplements the full
system described in the paper:

* :mod:`repro.dram` -- a cycle-level DDR4 memory-system simulator,
* :mod:`repro.cache` -- CPU-side and memory-side (RankCache) cache simulators,
* :mod:`repro.dlrm` -- the DLRM workload substrate (embedding tables, SLS
  operators, MLPs, the RM1/RM2 model configurations),
* :mod:`repro.traces` -- random and production-like embedding lookup traces,
* :mod:`repro.core` -- the RecNMP architecture itself (NMP instructions,
  packet generation/scheduling, hot-entry profiling, rank-/DIMM-NMP modules,
  the cycle simulator, and the energy/area models),
* :mod:`repro.perf` -- the analytical CPU/system performance models used for
  the characterization and the end-to-end evaluation,
* :mod:`repro.systems` -- the unified ``EmbeddingSystem`` interface, the
  string-keyed registry, and one class per compared system: the host CPU
  over DDR4, TensorDIMM, Chameleon and the RecNMP configurations,
* :mod:`repro.serving` -- request-level traffic serving (arrivals, batching,
  table sharding, queueing) on top of the system interface.
"""

from repro import (
    cache,
    core,
    dlrm,
    dram,
    perf,
    serving,
    systems,
    traces,
    utils,
)

__version__ = "1.1.0"

__all__ = [
    "cache",
    "core",
    "dlrm",
    "dram",
    "perf",
    "serving",
    "systems",
    "traces",
    "utils",
    "__version__",
]
