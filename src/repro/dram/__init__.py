"""Cycle-level DDR4 memory-system simulator.

This subpackage is the Ramulator-equivalent substrate the RecNMP evaluation
is built on.  It models:

* DDR4-2400 device timing (Table I of the paper),
* bank / bank-group / rank / channel state machines,
* a host-side FR-FCFS memory controller with an open-page policy,
* Intel Skylake-style physical-to-DRAM address mapping,
* DRAM access energy.
"""

from repro.dram.timing import DDR4Timing, DDR4_2400
from repro.dram.commands import (
    CommandType,
    DramCommand,
    MemoryRequest,
    RequestType,
)
from repro.dram.bank import Bank
from repro.dram.rank import Rank
from repro.dram.channel import Channel
from repro.dram.address_mapping import (
    DramAddress,
    MemoryGeometry,
    SkylakeAddressMapping,
)
from repro.dram.controller import MemoryController, ControllerStats
from repro.dram.system import DramSystem, DramSystemConfig
from repro.dram.energy import DramEnergyModel, DramEnergyParameters

__all__ = [
    "DDR4Timing",
    "DDR4_2400",
    "CommandType",
    "DramCommand",
    "MemoryRequest",
    "RequestType",
    "Bank",
    "Rank",
    "Channel",
    "DramAddress",
    "MemoryGeometry",
    "SkylakeAddressMapping",
    "MemoryController",
    "ControllerStats",
    "DramSystem",
    "DramSystemConfig",
    "DramEnergyModel",
    "DramEnergyParameters",
]
