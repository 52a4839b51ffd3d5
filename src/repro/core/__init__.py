"""RecNMP core: the paper's primary contribution.

This package contains the near-memory processing architecture itself:

* the compressed NMP instruction format and NMP packets,
* the packet generator (SLS operator -> NMP-Insts),
* the HW/SW co-optimisations (table-aware packet scheduling, hot-entry
  profiling),
* the rank-NMP modules' flat state and window loop, and the RecNMP channel
  that runs each packet across its ranks in one pass,
* the cycle-level RecNMP simulator and the NMP-extended memory controller
  that queues, schedules and dispatches the packets,
* the execution backends (serial / process) running multi-channel
  simulations in parallel,
* the C/A-bandwidth expansion analysis,
* the energy and area/power models.
"""

from repro.core.instruction import (
    NMPOpcode,
    NMPInstruction,
    NMPPacket,
    DDR_CMD_ACT,
    DDR_CMD_RD,
    DDR_CMD_PRE,
)
from repro.core.packet_generator import PacketGenerator, PacketGeneratorConfig
from repro.core.scheduler import fcfs_interleaved_order, table_aware_order
from repro.core.hot_entry import HotEntryProfiler, ProfileResult
from repro.core.rank_nmp import RankNMPConfig, RankNMPStats
from repro.core.simulator import (
    RecNMPSimulator,
    RecNMPConfig,
    RecNMPResult,
)
from repro.core.memory_controller import NMPMemoryController
from repro.core.backend import (
    BACKENDS,
    ParallelBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.core.multi_channel import MultiChannelRecNMP, MultiChannelResult
from repro.core.ca_bandwidth import CABandwidthModel
from repro.core.energy import RecNMPEnergyModel, NMPEnergyParameters
from repro.core.area_power import AreaPowerModel, OverheadReport

__all__ = [
    "NMPOpcode",
    "NMPInstruction",
    "NMPPacket",
    "DDR_CMD_ACT",
    "DDR_CMD_RD",
    "DDR_CMD_PRE",
    "PacketGenerator",
    "PacketGeneratorConfig",
    "fcfs_interleaved_order",
    "table_aware_order",
    "HotEntryProfiler",
    "ProfileResult",
    "RankNMPConfig",
    "RankNMPStats",
    "RecNMPSimulator",
    "RecNMPConfig",
    "RecNMPResult",
    "NMPMemoryController",
    "BACKENDS",
    "ParallelBackend",
    "SerialBackend",
    "ProcessBackend",
    "resolve_backend",
    "MultiChannelRecNMP",
    "MultiChannelResult",
    "CABandwidthModel",
    "RecNMPEnergyModel",
    "NMPEnergyParameters",
    "AreaPowerModel",
    "OverheadReport",
]
