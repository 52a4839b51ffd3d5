"""Unified embedding-system abstraction.

Every system the paper compares (host DDR4, TensorDIMM, Chameleon, the
RecNMP variants, multi-channel RecNMP) implements one interface --
:class:`EmbeddingSystem` with ``run(requests) -> SystemResult`` -- and is
constructed by name through the registry::

    from repro.systems import build_system

    system = build_system("recnmp-opt-4ch", vector_size_bytes=128)
    result = system.run(requests)
    print(result.speedup_vs_baseline, result.latency_us)

The built-in implementations live in :mod:`repro.systems.adapters`, one
class per compared system.
"""

from repro.systems.base import EmbeddingSystem, SystemResult, TableLayout
from repro.systems.registry import (
    available_systems,
    build_system,
    register_system,
    system_defaults,
    system_description,
)
from repro.systems.adapters import (
    ChameleonSystem,
    HostSystem,
    MultiChannelSystem,
    RecNMPSystem,
    TensorDIMMSystem,
    register_builtin_systems,
)

__all__ = [
    "EmbeddingSystem",
    "SystemResult",
    "TableLayout",
    "available_systems",
    "build_system",
    "register_system",
    "system_defaults",
    "system_description",
    "ChameleonSystem",
    "HostSystem",
    "MultiChannelSystem",
    "RecNMPSystem",
    "TensorDIMMSystem",
    "register_builtin_systems",
]
