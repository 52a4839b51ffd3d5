"""Shared utilities: an LRU cache, index distributions, speedup composition
and unit constants."""

from repro.utils.lru import LRUCache
from repro.utils.distributions import (
    ZipfGenerator,
    HotSetGenerator,
    UniformGenerator,
)
from repro.utils.stats import weighted_harmonic_speedup
from repro.utils.units import (
    KB,
    MB,
    GB,
    GIGA,
    MEGA,
    KILO,
)

__all__ = [
    "LRUCache",
    "ZipfGenerator",
    "HotSetGenerator",
    "UniformGenerator",
    "weighted_harmonic_speedup",
    "KB",
    "MB",
    "GB",
    "GIGA",
    "MEGA",
    "KILO",
]
